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
package peepul

import (
	"repro/internal/core"
	"repro/internal/replica"
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
// state in place, with no decode and no second encoding. A codec that
// also has AppendEncode(dst []byte, next, prev S, prevEnc []byte)
// ([]byte, int) — appending exactly Encode(next) to dst, free to copy
// from prevEnc, Encode(prev), when it is non-nil, and returning with it
// how many of its last bytes it copied from prevEnc's end — lets each
// operation commit be encoded from its parent's encoding into a buffer
// the store recycles, and diffed against it without comparing the copied
// run; such a codec's Decode and Check must keep no part of their input.
type Codec[S any] = store.Codec[S]

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

// SyncStats counts a node's (or one object's) sync traffic. It is a view
// over the node's metrics registry: each field sums the series of one
// kind of event (see Metrics).
type SyncStats = replica.SyncStats

// MaxReplicaID is the largest node id accepted by NewNode.
const MaxReplicaID = replica.MaxReplicaID
