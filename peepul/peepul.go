// Package peepul is the public face of the library: certified mergeable
// replicated data types (MRDTs) over a Git-like branch-and-merge store,
// replicated peer-to-peer with incremental delta sync — a from-scratch Go
// reproduction of "Certified Mergeable Replicated Data Types"
// (Soundarapandian, Kamath, Nagar, Sivaramakrishnan — PLDI 2022).
//
// The package is organized around three ideas:
//
//   - A Datatype descriptor bundles everything the system knows about one
//     MRDT: the implementation, its wire codec, the declarative
//     specification, the replication-aware simulation relation, the
//     operation alphabet used for certification, and the exploration
//     bounds. Register puts a descriptor in the global registry;
//     Lookup/All drive the verifier, the benchmarks and the codec
//     round-trip tests off the same single source of truth. The paper's
//     library ships pre-registered (PNCounter, OrSetSpace, Queue, Chat,
//     …).
//
//   - A Node is one replica hosting any number of named objects, the way
//     an Irmin repository hosts many keys. Open(node, datatype, name)
//     returns a typed Handle (get-or-create) with Do/Fork/Pull/Sync;
//     Node.SyncWith negotiates and delta-syncs every shared object with a
//     peer over a single connection, with per-object SyncStats. A node
//     created WithStorage is durable: each object keeps a segmented,
//     checksummed pack log on disk and recovers it (verified) on
//     reopen.
//
//   - Certification is executable: Registered.Certify explores the
//     replicated store's transition system and checks the paper's proof
//     obligations (Φ_do, Φ_merge, Φ_spec, Φ_con) at every transition.
//
// A minimal replicated counter:
//
//	node, _ := peepul.NewNode("eu", 1)
//	hits, _ := peepul.Open(node, peepul.PNCounter, "hits")
//	node.Listen("127.0.0.1:0")
//	hits.Do(peepul.CounterOp{Kind: peepul.CounterInc, N: 1})
//	node.SyncWith(peerAddr) // delta-syncs every object the peer shares
//
// # Replication
//
// The replication layer runs MRDTs on geo-distributed nodes that
// exchange their commit histories peer-to-peer over TCP — the deployment
// model of the paper's system (Irmin replicas synchronizing Git-style,
// §1, §7).
//
// A Node hosts any number of named replicated objects, the way an Irmin
// repository hosts many keys: each object is an independent versioned
// store (internal/store) of one registered datatype. One sync connection
// reconciles every object the two nodes share, in one protocol whose
// hello and span payloads open with wire.Version (any other version is
// refused). Per object, the client's hello carries the object's name,
// its datatype, its branch head and the root range probe of its commit
// set; the ack carries the server's head and the probe's answer (or a
// miss for objects the server does not host). The client then descends
// the hash ranges that differ until the exact symmetric difference is
// known, ships a want list and a packed delta of the commits the server
// lacks, and the server replies with exactly the wanted commits plus what
// it installed meanwhile — before it lands the delta, so the two sides
// land at the same time — and then ends the exchange with FrameLanded.
// Each side grafts the partial DAG onto the commits it already holds and
// unions the sender's head set into its branch (a store Pull), which
// commits nothing. A branch's state is the
// canonical merge of its head set over DAG-based merge bases, correct
// even when history reached a node indirectly through third parties —
// ring and mesh gossip topologies converge, which per-pair state exchange
// cannot achieve. A peer that has acked a hello before is opened with a
// whole-node span probe, so a re-sync of a converged pair costs one round
// trip, not one per object. Merging is the store's job and keeps its
// guarantees verbatim: every merge is over a base carrying exactly the
// operations common to both sides (Ψ_lca by construction).
//
// Session connections flush on block: each is buffered both ways, frames
// written during a protocol turn accumulate in the write buffer, and the
// raw read under the read buffer — which runs only when the session is
// about to wait for the peer — first flushes them. A turn (a hello with
// its root recon probe, a probe, a want with its delta, a reply) thus
// leaves in one write however many frames and fields it holds, a session
// costs about two conn operations per round trip, and the framing layer
// (internal/wire) never learns that buffering exists. The one turn the
// server answers in two writes is the want: it flushes the reply before
// it integrates the delta, then sends FrameLanded. The serving handler
// flushes once more on exit, so its last reply or refusal still reaches
// the client. Deadlines and byte accounting apply per raw fill
// and flush.
//
// Replication can be always-on: every node runs a sync daemon (mesh.go,
// supervisor.go). Peers configured with WithPeers (or added with
// AddPeer) get a supervisor goroutine that keeps one outbound link to
// the peer (link.go) and runs jittered anti-entropy rounds — the same syncPeer code path a
// manual SyncWith uses — while the link is up. A link is a client session
// whose connection outlives it: the connect session repairs the pair, and
// then the connection streams, one way, every commit the node installs —
// local commits and remote-merge head moves alike — except those that
// arrived from that peer. The serving side integrates each stream batch
// as it integrates a session's delta. Failures back off exponentially per
// peer, and a failed link reconnects, its connect session the repair.
// Watch exposes the merge path's head moves as a notification channel.
//
// Concurrency discipline: no replica-level lock sits on the data path.
// Right after the dial, before its first frame, a client session takes a
// store.Capture of every object in scope; the span probe and hello
// advertise the capture's head, the recon descent reads the live
// fingerprint tree, the ship set is exported as of the capture
// (store.AsOf), and the peer's reply is integrated — imported and united
// with the node branch in one store critical section (store.Integrate) —
// into whatever head the branch has by then. A serving session captures
// at its hello, drains the capture into its reply (store.Drain) and only
// then integrates the client's delta, so the two stores import at once;
// a link keeps its connect session's capture and drains it per batch.
// Why each export is exact while writes and other sessions interleave is
// argued once, on store.Capture. A session's work is bounded by the state it connected
// with: commits younger than it ride the link's next batch or the next
// round. Local commits (Handle.Do, Pull, Sync) take only the store's
// lock and never wait for a session.
//
// Nothing blocks on a connection while holding a lock another session
// needs, so two nodes syncing each other simultaneously have no
// waits-for edge between them and need no tie-break. That crossed
// sessions still converge is the store's doing: a pull mints no commit,
// so a node's head set is the set of maximal commits it holds, and two
// nodes holding the same commits hold the same heads — there is nothing
// left for crossed sessions to chase. What crossing can cost is a second
// delivery: two sessions running opposite ways between one pair may both
// carry the same commit (one in its ship set, one in its reply), and two
// nodes that write after seeing the same heads both mint the same
// canonical merge; content addressing drops the copy on arrival and
// RedundantCommits counts it. Uncrossed sessions ship exactly once, and a
// link never streams back what its peer sent, so between linked nodes
// crossing happens only between a round (or connect session) and the
// other side's stream. Client sessions additionally take turns per peer
// address (a session-admission lock no write, no handler and no link's
// stream ever takes), so a daemon round, a connect session and a manual
// SyncWith to the same peer never duplicate each other's transfer.
package peepul

import (
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/sim"
	"repro/internal/store"
)

// MRDT is a mergeable replicated data type implementation
// D_τ = (Σ, σ0, do, merge): Init, Do (with store-supplied unique
// timestamps) and a three-way Merge over the lowest common ancestor.
// Implementations must be purely functional.
type MRDT[S, Op, Val any] = core.MRDT[S, Op, Val]

// Codec serializes and deserializes states of type S; encoding drives
// content addressing, decoding lets transferred histories round-trip.
// Encode and Decode may be called concurrently from several goroutines
// and must not share mutable state. A codec that also has
// Check(enc []byte) error — nil exactly when Decode(enc) succeeds and
// Encode of the result is enc — lets an import validate each incoming
// state in place, with no decode and no second encoding; one that also
// has CheckEdit(enc, base []byte, runs []CopyRun) error — nil exactly
// when Check(enc) is, given a canonical base and the runs enc copies
// from it — lets an import check a state a shipped patch built in the
// work of the edit. A codec that also has AppendEncode(dst []byte, next,
// prev S, prevEnc []byte, runs []CopyRun) ([]byte, []CopyRun) —
// appending exactly Encode(next) to dst, free to copy from prevEnc,
// Encode(prev), when it is non-nil, and appending to runs each stretch of
// its output it copied from prevEnc — lets each operation commit be
// encoded from its parent's encoding into a buffer the store recycles,
// and diffed against it without comparing the copied runs; such a
// codec's Decode and Check must keep no part of their input.
type Codec[S any] = store.Codec[S]

// CopyRun is a stretch of an encoding a codec's append form copied from
// its parent's encoding: enc[At:At+Len] is prevEnc[Off:Off+Len], with enc
// the bytes AppendEncode appended.
type CopyRun = delta.CopyRun

// Spec is a declarative replicated data type specification F_τ: the value
// an operation must return given the abstract (event-history) state
// visible to it.
type Spec[Op, Val any] = core.Spec[Op, Val]

// Rsim is a replication-aware simulation relation relating abstract
// states to concrete states.
type Rsim[S, Op, Val any] = core.Rsim[S, Op, Val]

// ValEq compares operation return values (slices and other
// non-comparable values need per-type equality).
type ValEq[Val any] = core.ValEq[Val]

// AbstractState is the event-history state the specifications are written
// against.
type AbstractState[Op, Val any] = core.AbstractState[Op, Val]

// Timestamp is the totally ordered, globally unique operation timestamp
// the store supplies (property Ψ_ts).
type Timestamp = core.Timestamp

// Config bounds a certification run: exhaustive exploration depth plus
// seeded random walks.
type Config = sim.Config

// Report summarizes one certification run.
type Report = sim.Report

// DefaultConfig returns certification bounds that finish in a few seconds
// for the simple data types.
func DefaultConfig() Config { return sim.DefaultConfig() }
