package peepul

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/store"
)

// Datatype is the descriptor of one MRDT: everything the system knows
// about the type, in one value. Open instantiates replicated objects from
// it; Register adds it to the global registry that drives the verifier,
// the benchmarks and the codec round-trip tests.
type Datatype[S, Op, Val any] struct {
	// Name identifies the datatype in the registry, in reports, and in
	// sync hellos (two nodes only merge an object if they agree on its
	// datatype name).
	Name string
	// Impl is the implementation D_τ.
	Impl MRDT[S, Op, Val]
	// Codec serializes states for content addressing and replication.
	Codec Codec[S]
	// Spec is the declarative specification F_τ.
	Spec Spec[Op, Val]
	// Rsim is the replication-aware simulation relation.
	Rsim Rsim[S, Op, Val]
	// ValEq compares return values.
	ValEq ValEq[Val]
	// Ops is the operation alphabet used to generate certification
	// executions and codec round-trip walks.
	Ops []Op
	// Probes are the operations used for observational-equivalence
	// checks; Ops is used when nil.
	Probes []Op
	// Invariant, if non-nil, is an additional predicate checked on every
	// abstract state the store produces (e.g. the queue axioms of §6.2).
	Invariant func(abs *AbstractState[Op, Val]) bool
	// Bounds are the recommended exploration bounds; the zero value means
	// DefaultConfig.
	Bounds Config
}

// harness assembles the certification harness for the descriptor.
func (d Datatype[S, Op, Val]) harness() *sim.Harness[S, Op, Val] {
	return &sim.Harness[S, Op, Val]{
		Name:      d.Name,
		Impl:      d.Impl,
		Spec:      d.Spec,
		Rsim:      d.Rsim,
		ValEq:     d.ValEq,
		Ops:       d.Ops,
		Probes:    d.Probes,
		Invariant: d.Invariant,
	}
}

// Registered is the type-erased view of a registered Datatype, uniform
// across heterogeneous type parameters so the registry can be iterated.
type Registered interface {
	// Name identifies the datatype.
	Name() string
	// Config returns the recommended exploration bounds.
	Config() Config
	// Certify runs the certification harness under the given bounds,
	// checking the paper's proof obligations at every transition.
	Certify(cfg Config) Report
	// CodecRoundTrip drives a seeded random walk of the operation
	// alphabet and, at every state, checks that Decode(Encode(s)) is
	// observationally equal to s, that re-encoding is byte-identical, and
	// that the content-address hash is stable.
	CodecRoundTrip(seed int64, steps int) error

	sealed()
}

type registered[S, Op, Val any] struct {
	d Datatype[S, Op, Val]
}

func (r registered[S, Op, Val]) sealed() {}

func (r registered[S, Op, Val]) Name() string { return r.d.Name }

func (r registered[S, Op, Val]) Config() Config { return r.d.Bounds }

func (r registered[S, Op, Val]) Certify(cfg Config) Report {
	return r.d.harness().Certify(cfg)
}

func (r registered[S, Op, Val]) CodecRoundTrip(seed int64, steps int) error {
	d := r.d
	if len(d.Ops) == 0 {
		return fmt.Errorf("%s: empty operation alphabet", d.Name)
	}
	probes := d.Probes
	if len(probes) == 0 {
		probes = d.Ops
	}
	rng := rand.New(rand.NewSource(seed))
	s := d.Impl.Init()
	for i := 0; i <= steps; i++ {
		enc := d.Codec.Encode(s)
		dec, err := d.Codec.Decode(enc)
		if err != nil {
			return fmt.Errorf("%s: step %d: decode: %w", d.Name, i, err)
		}
		// Re-encoding the decoded state must reproduce the payload bit
		// for bit — content addressing depends on it.
		enc2 := d.Codec.Encode(dec)
		if !bytes.Equal(enc, enc2) {
			return fmt.Errorf("%s: step %d: re-encode differs (%d vs %d bytes)", d.Name, i, len(enc), len(enc2))
		}
		if store.StateAddr(enc) != store.StateAddr(enc2) {
			return fmt.Errorf("%s: step %d: content hash unstable", d.Name, i)
		}
		// The decoded state must be observationally equal to the
		// original (codecs may normalize representation, e.g. rebalance
		// a tree, but never change observable behaviour).
		if !core.ObsEquiv(d.Impl, probes, d.ValEq, s, dec, Timestamp(1<<40)+Timestamp(i)) {
			return fmt.Errorf("%s: step %d: decoded state observationally differs", d.Name, i)
		}
		op := d.Ops[rng.Intn(len(d.Ops))]
		s, _ = d.Impl.Do(op, s, Timestamp(i+1))
	}
	return nil
}

var (
	regMu    sync.RWMutex
	regOrder []string
	regByKey = make(map[string]Registered)
)

// Register adds a descriptor to the global registry and returns it
// unchanged (so package-level descriptor variables register themselves).
// Empty names, missing implementation or codec, and duplicate names
// panic: registration is init-time wiring, not a runtime operation. A
// zero Bounds field is replaced with DefaultConfig.
func Register[S, Op, Val any](d Datatype[S, Op, Val]) Datatype[S, Op, Val] {
	if d.Name == "" {
		panic("peepul: Register: empty datatype name")
	}
	if d.Impl == nil {
		panic("peepul: Register: " + d.Name + " has no implementation")
	}
	if d.Codec == nil {
		panic("peepul: Register: " + d.Name + " has no codec")
	}
	if d.Bounds == (Config{}) {
		d.Bounds = sim.DefaultConfig()
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regByKey[d.Name]; dup {
		panic("peepul: Register: duplicate datatype name " + d.Name)
	}
	regByKey[d.Name] = registered[S, Op, Val]{d: d}
	regOrder = append(regOrder, d.Name)
	return d
}

// Lookup returns the registered datatype named name.
func Lookup(name string) (Registered, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	r, ok := regByKey[name]
	return r, ok
}

// All returns every registered datatype in registration order (the
// built-in library registers in the order of the paper's Table 3).
func All() []Registered {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Registered, 0, len(regOrder))
	for _, name := range regOrder {
		out = append(out, regByKey[name])
	}
	return out
}

// Names returns every registered datatype name in registration order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, len(regOrder))
	copy(out, regOrder)
	return out
}
