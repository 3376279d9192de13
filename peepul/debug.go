package peepul

// The live debug endpoint (WithDebugAddr): a small HTTP server owned by
// the node serving /metrics (Prometheus text), /debug/peepul/snapshot
// (one JSON document unifying every Stats surface, the metric registry
// and the flight recorder), /debug/peepul/trace, /healthz, and the
// net/http/pprof profiles. The server shares the node's lifecycle: it
// starts inside NewNode and Close tears it down before waiting on the
// node's goroutines.

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/obs"
)

// DebugSnapshot is the one-document debug view: node identity,
// aggregate and per-object sync stats, per-peer mesh state, every
// metric series, and the recent trace. Served at
// /debug/peepul/snapshot when WithDebugAddr is set.
type DebugSnapshot struct {
	Node      string                 `json:"node"`
	ReplicaID int                    `json:"replica_id"`
	Time      time.Time              `json:"time"`
	Addr      string                 `json:"addr,omitempty"`
	Stats     SyncStats              `json:"stats"`
	Objects   map[string]ObjectDebug `json:"objects"`
	Mesh      map[string]MeshStats   `json:"mesh"`
	Metrics   []Metric               `json:"metrics"`
	Spans     []Span                 `json:"spans"`
	Events    []TraceEvent           `json:"events"`
}

// ObjectDebug is one object's row in a DebugSnapshot.
type ObjectDebug struct {
	Datatype string `json:"datatype"`
	// Commits is the object's current commit count (the size of its
	// reconciliation tree).
	Commits int           `json:"commits"`
	Head    string        `json:"head,omitempty"`
	Stats   SyncStats     `json:"stats"`
	Storage *StorageStats `json:"storage,omitempty"`
}

// DebugSnapshot assembles the unified debug document in process — the
// same document WithDebugAddr serves over HTTP. It works without
// WithDebugAddr, metrics included, and its spans and events are empty
// without WithObservability.
func (n *Node) DebugSnapshot() DebugSnapshot {
	snap := DebugSnapshot{
		Node:      n.name,
		ReplicaID: n.replicaID,
		Time:      time.Now(),
		Addr:      n.Addr(),
		Stats:     n.Stats(),
		Objects:   make(map[string]ObjectDebug),
		Mesh:      n.MeshStats(),
	}
	for _, name := range n.Objects() {
		e, ok := n.entry(name)
		if !ok {
			continue
		}
		od := ObjectDebug{Datatype: e.datatype, Stats: n.ObjectStats(name)}
		_, od.Commits = e.st.ReconRoot()
		if h, err := e.st.HeadHash(n.name); err == nil {
			od.Head = hex.EncodeToString(h[:])
		}
		if e.log != nil {
			st := e.log.Stats()
			od.Storage = &st
		}
		snap.Objects[name] = od
	}
	snap.Metrics = n.Metrics()
	tr := n.Trace()
	snap.Spans, snap.Events = tr.Spans, tr.Events
	return snap
}

// debugServer is the node-owned HTTP listener behind WithDebugAddr.
type debugServer struct {
	ln  net.Listener
	srv *http.Server
}

func (d *debugServer) close() {
	// Close (not Shutdown): the debug endpoint must never hold up node
	// teardown, and a truncated scrape is harmless.
	d.srv.Close()
}

// startDebug binds the debug address and starts serving; the accept
// loop runs on the node's WaitGroup so Close waits for it.
func (n *Node) startDebug(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("debug listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		n.WriteMetrics(w)
	})
	mux.HandleFunc("/debug/peepul/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(n.DebugSnapshot())
	})
	mux.HandleFunc("/debug/peepul/trace", func(w http.ResponseWriter, r *http.Request) {
		tr := n.Trace()
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, obs.FormatTrace(tr))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(tr)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	n.debug = &debugServer{ln: ln, srv: srv}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// The only expected exit is our own close; anything else is
			// already reported to the scraper by the failed request.
			_ = err
		}
	}()
	return nil
}

// DebugAddr returns the bound debug-endpoint address, "" without
// WithDebugAddr — with ":0" this is how callers learn the picked port.
func (n *Node) DebugAddr() string {
	if n.debug == nil {
		return ""
	}
	return n.debug.ln.Addr().String()
}
