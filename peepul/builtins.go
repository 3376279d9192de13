package peepul

import (
	"repro/internal/alphamap"
	"repro/internal/chat"
	"repro/internal/counter"
	"repro/internal/ewflag"
	"repro/internal/gmap"
	"repro/internal/gset"
	"repro/internal/lwwreg"
	"repro/internal/mlog"
	"repro/internal/orset"
	"repro/internal/queue"
	"repro/internal/wire"
)

// The built-in library: every datatype of the paper's Table 3 (plus the
// disable-wins dual), each registered once with its implementation,
// codec, specification, simulation relation, certification alphabet and
// exploration bounds. Everything downstream — Open, peepul-verify,
// peepul-bench, the codec round-trip suite — iterates these
// registrations instead of hand-wiring types.

// Operation and value vocabulary for the flagship datatypes, re-exported
// so applications consume only this package.
type (
	// CounterOp is an increment/PN-counter operation.
	CounterOp = counter.Op
	// CounterVal is a counter operation's return value.
	CounterVal = counter.Val
	// CounterPNState is the PN-counter state (increment and decrement
	// tallies).
	CounterPNState = counter.PNState
	// MLogOp is a mergeable-log operation.
	MLogOp = mlog.Op
	// MLogVal is a mergeable-log operation's return value.
	MLogVal = mlog.Val
	// MLogState is the mergeable-log state (entries newest first). States
	// share memory with one another: clip one (s[:len(s):len(s)]) before
	// appending to it.
	MLogState = mlog.State
	// QueueOp is a functional-queue operation.
	QueueOp = queue.Op
	// QueueVal is a functional-queue operation's return value.
	QueueVal = queue.Val
	// QueueState is the functional-queue state.
	QueueState = queue.State
	// OrSetOp is an OR-set operation.
	OrSetOp = orset.Op
	// OrSetVal is an OR-set operation's return value.
	OrSetVal = orset.Val
	// ChatOp is an IRC-style chat operation.
	ChatOp = chat.Op
	// ChatVal is a chat operation's return value.
	ChatVal = chat.Val
	// ChatState is the chat state: an α-map from channel names to
	// mergeable logs (bindings sorted by channel, entries newest first).
	ChatState = chat.State
)

// Operation kinds of the flagship datatypes.
const (
	CounterRead = counter.Read
	CounterInc  = counter.Inc
	CounterDec  = counter.Dec

	MLogRead   = mlog.Read
	MLogAppend = mlog.Append

	QueueEnqueue = queue.Enqueue
	QueueDequeue = queue.Dequeue

	OrSetRead   = orset.Read
	OrSetAdd    = orset.Add
	OrSetRemove = orset.Remove
	OrSetLookup = orset.Lookup

	ChatSend = chat.Send
	ChatRead = chat.Read
)

// IncCounter is the increment-only counter.
var IncCounter = Register(Datatype[int64, counter.Op, counter.Val]{
	Name:  "inc-counter",
	Impl:  counter.IncCounter{},
	Codec: wire.IncCounter{},
	Spec:  counter.IncSpec,
	Rsim:  counter.IncRsim,
	ValEq: counter.ValEq,
	Ops: []counter.Op{
		{Kind: counter.Read},
		{Kind: counter.Inc, N: 1},
		{Kind: counter.Inc, N: 2},
	},
	Probes: []counter.Op{{Kind: counter.Read}},
})

// PNCounter is the increment/decrement counter.
var PNCounter = Register(Datatype[counter.PNState, counter.Op, counter.Val]{
	Name:  "pn-counter",
	Impl:  counter.PNCounter{},
	Codec: wire.PNCounter{},
	Spec:  counter.PNSpec,
	Rsim:  counter.PNRsim,
	ValEq: counter.ValEq,
	Ops: []counter.Op{
		{Kind: counter.Read},
		{Kind: counter.Inc, N: 1},
		{Kind: counter.Dec, N: 1},
	},
	Probes: []counter.Op{{Kind: counter.Read}},
})

// EWFlag is the enable-wins flag.
var EWFlag = Register(Datatype[ewflag.State, ewflag.Op, ewflag.Val]{
	Name:  "ew-flag",
	Impl:  ewflag.Flag{},
	Codec: wire.EWFlag{},
	Spec:  ewflag.Spec,
	Rsim:  ewflag.Rsim,
	ValEq: ewflag.ValEq,
	Ops: []ewflag.Op{
		{Kind: ewflag.Read},
		{Kind: ewflag.Enable},
		{Kind: ewflag.Disable},
	},
	Probes: []ewflag.Op{{Kind: ewflag.Read}},
})

// DWFlag is the disable-wins flag — the dual policy, not in the paper's
// library; certifying it shows the framework is policy agnostic.
var DWFlag = Register(Datatype[ewflag.DWState, ewflag.Op, ewflag.Val]{
	Name:  "dw-flag",
	Impl:  ewflag.DWFlag{},
	Codec: wire.DWFlag{},
	Spec:  ewflag.DWSpec,
	Rsim:  ewflag.DWRsim,
	ValEq: ewflag.ValEq,
	Ops: []ewflag.Op{
		{Kind: ewflag.Read},
		{Kind: ewflag.Enable},
		{Kind: ewflag.Disable},
	},
	Probes: []ewflag.Op{{Kind: ewflag.Read}},
})

// LWWReg is the last-writer-wins register.
var LWWReg = Register(Datatype[lwwreg.State, lwwreg.Op, lwwreg.Val]{
	Name:  "lww-register",
	Impl:  lwwreg.Reg{},
	Codec: wire.LWWReg{},
	Spec:  lwwreg.Spec,
	Rsim:  lwwreg.Rsim,
	ValEq: lwwreg.ValEq,
	Ops: []lwwreg.Op{
		{Kind: lwwreg.Read},
		{Kind: lwwreg.Write, V: 1},
		{Kind: lwwreg.Write, V: 2},
	},
	Probes: []lwwreg.Op{{Kind: lwwreg.Read}},
})

// GSet is the grow-only set.
var GSet = Register(Datatype[gset.State, gset.Op, gset.Val]{
	Name:  "g-set",
	Impl:  gset.Set{},
	Codec: wire.GSet{},
	Spec:  gset.Spec,
	Rsim:  gset.Rsim,
	ValEq: gset.ValEq,
	Ops: []gset.Op{
		{Kind: gset.Read},
		{Kind: gset.Add, E: 1},
		{Kind: gset.Add, E: 2},
		{Kind: gset.Lookup, E: 1},
	},
	Probes: []gset.Op{{Kind: gset.Read}},
})

// GMap is the grow-only map.
var GMap = Register(Datatype[gmap.State, gmap.Op, gmap.Val]{
	Name:  "g-map",
	Impl:  gmap.Map{},
	Codec: wire.GMap{},
	Spec:  gmap.Spec,
	Rsim:  gmap.Rsim,
	ValEq: gmap.ValEq,
	Ops: []gmap.Op{
		{Kind: gmap.Get, K: "a"},
		{Kind: gmap.Put, K: "a", V: 1},
		{Kind: gmap.Put, K: "a", V: 2},
		{Kind: gmap.Put, K: "b", V: 1},
		{Kind: gmap.Keys},
	},
	Probes: []gmap.Op{
		{Kind: gmap.Get, K: "a"},
		{Kind: gmap.Get, K: "b"},
		{Kind: gmap.Keys},
	},
})

// MLog is the mergeable log (§5.2).
var MLog = Register(Datatype[mlog.State, mlog.Op, mlog.Val]{
	Name:  "mergeable-log",
	Impl:  mlog.Log{},
	Codec: wire.MLog{},
	Spec:  mlog.Spec,
	Rsim:  mlog.Rsim,
	ValEq: mlog.ValEq,
	Ops: []mlog.Op{
		{Kind: mlog.Read},
		{Kind: mlog.Append, Msg: "x"},
		{Kind: mlog.Append, Msg: "y"},
	},
	Probes: []mlog.Op{{Kind: mlog.Read}},
})

func orsetOps() []orset.Op {
	return []orset.Op{
		{Kind: orset.Read},
		{Kind: orset.Add, E: 1},
		{Kind: orset.Add, E: 2},
		{Kind: orset.Remove, E: 1},
		{Kind: orset.Lookup, E: 1},
	}
}

func orsetProbes() []orset.Op {
	return []orset.Op{{Kind: orset.Read}}
}

// OrSet is the unoptimized OR-set (§2.1.1).
var OrSet = Register(Datatype[orset.State, orset.Op, orset.Val]{
	Name:   "or-set",
	Impl:   orset.OrSet{},
	Codec:  wire.OrSet{},
	Spec:   orset.Spec,
	Rsim:   orset.Rsim,
	ValEq:  orset.ValEq,
	Ops:    orsetOps(),
	Probes: orsetProbes(),
})

// OrSetSpace is the space-efficient OR-set (§2.1.2).
var OrSetSpace = Register(Datatype[orset.SpaceState, orset.Op, orset.Val]{
	Name:   "or-set-space",
	Impl:   orset.OrSetSpace{},
	Codec:  wire.OrSetSpace{},
	Spec:   orset.Spec,
	Rsim:   orset.RsimSpace,
	ValEq:  orset.ValEq,
	Ops:    orsetOps(),
	Probes: orsetProbes(),
})

// OrSetSpaceTime is the space- and time-efficient OR-set (§7.1).
var OrSetSpaceTime = Register(Datatype[orset.TreeState, orset.Op, orset.Val]{
	Name:   "or-set-spacetime",
	Impl:   orset.OrSetSpaceTime{},
	Codec:  wire.OrSetSpaceTime{},
	Spec:   orset.Spec,
	Rsim:   orset.RsimSpaceTime,
	ValEq:  orset.ValEq,
	Ops:    orsetOps(),
	Probes: orsetProbes(),
})

// Queue is the replicated functional queue (§6), with the queue axioms
// of §6.2 installed as an abstract-state invariant.
var Queue = Register(Datatype[queue.State, queue.Op, queue.Val]{
	Name:  "functional-queue",
	Impl:  queue.Queue{},
	Codec: wire.Queue{},
	Spec:  queue.Spec,
	Rsim:  queue.Rsim,
	ValEq: queue.ValEq,
	Ops: []queue.Op{
		{Kind: queue.Enqueue, V: 1},
		{Kind: queue.Enqueue, V: 2},
		{Kind: queue.Dequeue},
	},
	Probes:    []queue.Op{{Kind: queue.Dequeue}},
	Invariant: queue.Axioms,
	// The axioms are O(n⁴) in the number of events; keep walks shorter.
	Bounds: Config{
		MaxBranches:      2,
		MaxSteps:         4,
		RandomExecutions: 200,
		RandomSteps:      18,
		RandomBranches:   3,
		Seed:             1,
	},
})

// compositionBounds are the exploration bounds shared by the α-map
// composition instances, whose states grow faster per step.
var compositionBounds = Config{
	MaxBranches:      2,
	MaxSteps:         4,
	RandomExecutions: 150,
	RandomSteps:      20,
	RandomBranches:   3,
	Seed:             1,
}

// alphaMapCounterImpl is the α-map instantiated with the PN-counter.
var alphaMapCounterImpl = alphamap.New[counter.PNState, counter.Op, counter.Val](counter.PNCounter{})

// AlphaMapCounter is the generic α-map over PN-counters — the
// composition machinery of §5.3–5.4 certified on a non-trivial inner
// type.
var AlphaMapCounter = Register(Datatype[alphamap.State[counter.PNState], alphamap.Op[counter.Op], counter.Val]{
	Name:  "alpha-map<pn-counter>",
	Impl:  alphaMapCounterImpl,
	Codec: wire.AlphaMap[counter.PNState]{Inner: wire.PNCounter{}},
	Spec:  alphamap.Spec[counter.Op, counter.Val](counter.PNSpec),
	Rsim:  alphamap.Rsim[counter.PNState, counter.Op, counter.Val](alphaMapCounterImpl, counter.PNRsim),
	ValEq: counter.ValEq,
	Ops: []alphamap.Op[counter.Op]{
		{K: "a", Inner: counter.Op{Kind: counter.Inc, N: 1}},
		{K: "a", Inner: counter.Op{Kind: counter.Dec, N: 1}},
		{K: "b", Inner: counter.Op{Kind: counter.Inc, N: 1}},
		{Get: true, K: "a", Inner: counter.Op{Kind: counter.Read}},
	},
	Probes: []alphamap.Op[counter.Op]{
		{Get: true, K: "a", Inner: counter.Op{Kind: counter.Read}},
		{Get: true, K: "b", Inner: counter.Op{Kind: counter.Read}},
	},
	Bounds: compositionBounds,
})

// alphaMapOrSetImpl is the α-map instantiated with the space-efficient
// OR-set.
var alphaMapOrSetImpl = alphamap.New[orset.SpaceState, orset.Op, orset.Val](orset.OrSetSpace{})

// AlphaMapOrSet is the α-map over space-efficient OR-sets — a second
// composition instance demonstrating that the derived specification and
// simulation relation are agnostic to the inner data type (§5.3's
// parametric polymorphism).
var AlphaMapOrSet = Register(Datatype[alphamap.State[orset.SpaceState], alphamap.Op[orset.Op], orset.Val]{
	Name:  "alpha-map<or-set-space>",
	Impl:  alphaMapOrSetImpl,
	Codec: wire.AlphaMap[orset.SpaceState]{Inner: wire.OrSetSpace{}},
	Spec:  alphamap.Spec[orset.Op, orset.Val](orset.Spec),
	Rsim:  alphamap.Rsim[orset.SpaceState, orset.Op, orset.Val](alphaMapOrSetImpl, orset.RsimSpace),
	ValEq: orset.ValEq,
	Ops: []alphamap.Op[orset.Op]{
		{K: "a", Inner: orset.Op{Kind: orset.Add, E: 1}},
		{K: "a", Inner: orset.Op{Kind: orset.Remove, E: 1}},
		{K: "b", Inner: orset.Op{Kind: orset.Add, E: 2}},
		{Get: true, K: "a", Inner: orset.Op{Kind: orset.Read}},
	},
	Probes: []alphamap.Op[orset.Op]{
		{Get: true, K: "a", Inner: orset.Op{Kind: orset.Read}},
		{Get: true, K: "b", Inner: orset.Op{Kind: orset.Read}},
	},
	Bounds: compositionBounds,
})

// Chat is the IRC-style chat (§5.1) — the composition α-map over
// mergeable logs, certified end to end.
var Chat = Register(Datatype[chat.State, chat.Op, chat.Val]{
	Name:  "irc-chat",
	Impl:  chat.Chat{},
	Codec: wire.Chat{},
	Spec:  chat.Spec,
	Rsim:  chat.Rsim,
	ValEq: chat.ValEq,
	Ops: []chat.Op{
		{Kind: chat.Send, Ch: "#go", Msg: "hi"},
		{Kind: chat.Send, Ch: "#go", Msg: "yo"},
		{Kind: chat.Send, Ch: "#ml", Msg: "hey"},
		{Kind: chat.Read, Ch: "#go"},
	},
	Probes: []chat.Op{
		{Kind: chat.Read, Ch: "#go"},
		{Kind: chat.Read, Ch: "#ml"},
	},
	Bounds: compositionBounds,
})
