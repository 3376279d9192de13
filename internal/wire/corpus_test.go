package wire_test

// Recorded-session fuzz corpus: real sync and recon exchanges between
// two live nodes, then a link's connect session and stream, captured
// byte-for-byte through a faultnet tap, split
// into frames, and committed as FuzzReadMsg seeds — each frame whole,
// truncated mid-body, and with a bit flipped. `go test` replays every
// committed seed through the fuzz target, so the parser is exercised
// against genuine wire traffic (and hostile mutations of it) on every
// run, not just synthetic frames.
//
// Regenerate with PEEPUL_WRITE_CORPUS=1 go test ./internal/wire
// -run TestWriteFuzzCorpus after wire-format changes. Recording adds the
// current dialect's frames and keeps the seeds already committed: a
// frame an older dialect sent is still a hostile input the parser must
// refuse or round-trip.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/counter"
	"repro/internal/faultnet"
	"repro/internal/wire"
	"repro/peepul"
)

const corpusDir = "testdata/fuzz/FuzzReadMsg"

// TestRecordedSessionCorpusCommitted guards the committed corpus: the
// recorded-session seeds must exist, carry the corpus file format, and
// include delta headers announcing a head set of several members — the
// recording's nodes both write between syncs, so each integrates the
// other's head beside its own — and the landed frame that ends each
// serving exchange.
func TestRecordedSessionCorpusCommitted(t *testing.T) {
	entries, err := os.ReadDir(corpusDir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("recorded-session corpus missing (%v); regenerate with PEEPUL_WRITE_CORPUS=1", err)
	}
	sessions, headSets, landed := 0, 0, 0
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(corpusDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		body, ok := strings.CutPrefix(string(data), "go test fuzz v1\n")
		if !ok {
			t.Fatalf("seed %s is not in go corpus format", e.Name())
		}
		if !strings.HasPrefix(e.Name(), "session-") {
			continue
		}
		sessions++
		raw, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(body, "[]byte("), ")\n"))
		if err != nil {
			t.Fatalf("seed %s: %v", e.Name(), err)
		}
		kind, fields, err := wire.ReadMsg(strings.NewReader(raw))
		switch {
		case err != nil:
		case kind == wire.FrameDeltaHeader && len(fields) == 1 && len(fields[0]) >= 4 && binary.BigEndian.Uint32(fields[0]) > 1:
			headSets++
		case kind == wire.FrameLanded && len(fields) == 0:
			landed++
		}
	}
	if sessions < 10 {
		t.Fatalf("only %d recorded-session seeds committed, want a real capture", sessions)
	}
	if headSets == 0 {
		t.Fatal("no recorded delta header announces several heads")
	}
	if landed == 0 {
		t.Fatal("no recorded landed frame")
	}
}

// TestWriteFuzzCorpus records live sessions and adds their frames to the
// seed files. Gated behind PEEPUL_WRITE_CORPUS so ordinary runs never
// churn testdata.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("PEEPUL_WRITE_CORPUS") == "" {
		t.Skip("set PEEPUL_WRITE_CORPUS=1 to re-record the session corpus")
	}

	// Tap every byte both directions of every connection.
	var mu sync.Mutex
	streams := make(map[[2]string]*bytes.Buffer)
	tap := func(from, to string, data []byte) {
		mu.Lock()
		defer mu.Unlock()
		key := [2]string{from, to}
		if streams[key] == nil {
			streams[key] = &bytes.Buffer{}
		}
		streams[key].Write(data)
	}
	fn := faultnet.New(1, faultnet.WithTap(tap))

	mk := func(name string, id int) (*peepul.Node, *peepul.Handle[counter.PNState, counter.Op, counter.Val]) {
		n, err := peepul.NewNode(name, id, peepul.WithTransport(fn.Transport(name)), peepul.WithMeshInterval(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		obj, err := peepul.Open(n, peepul.PNCounter, "counter")
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n, obj
	}
	a, aobj := mk("a", 1)
	b, bobj := mk("b", 2)

	// Several rounds with commits on both sides: the first exchange each
	// way opens with the hello, later ones with the span probe, so the
	// capture holds span, hello, recon probe/want and commit frames.
	for i := 0; i < 4; i++ {
		if _, err := aobj.Do(counter.Op{Kind: counter.Inc, N: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		if _, err := bobj.Do(counter.Op{Kind: counter.Dec, N: 1}); err != nil {
			t.Fatal(err)
		}
		if err := a.SyncWith(b.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := b.SyncWith(a.Addr()); err != nil {
			t.Fatal(err)
		}
	}

	// Then a link from a to b: its connect session, and commits streaming
	// over it as link batches, with no round to interleave.
	a.AddPeer(b.Addr())
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, _ := a.PeerMeshStats(b.Addr()); st.LinkUp {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("link never came up")
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := aobj.Do(counter.Op{Kind: counter.Inc, N: 10}); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if sa, _ := aobj.State(); func() bool { sb, _ := bobj.State(); return sa == sb }() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("link batch never arrived")
			}
		}
	}
	a.RemovePeer(b.Addr())

	// Split each direction's stream into frames and emit seed variants.
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}

	seen := make(map[[32]byte]bool)
	// Up to 60 new seeds per direction, so both the client's frames and
	// the server's answers make it in.
	count, limit := 0, 0
	emit := func(variant string, data []byte) {
		if len(data) == 0 || count >= limit {
			return
		}
		h := sha256.Sum256(data)
		if seen[h] {
			return
		}
		seen[h] = true
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		path := filepath.Join(corpusDir, fmt.Sprintf("session-%s-%x", variant, h[:6]))
		if _, err := os.Stat(path); err == nil {
			return // committed already
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		count++
	}

	mu.Lock()
	defer mu.Unlock()
	keys := make([][2]string, 0, len(streams))
	for k := range streams {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0]+"\x00"+keys[i][1] < keys[j][0]+"\x00"+keys[j][1]
	})
	for _, k := range keys {
		limit = count + 60
		r := bytes.NewReader(streams[k].Bytes())
		for {
			kind, fields, err := wire.ReadMsg(r)
			if err != nil {
				break
			}
			var frame bytes.Buffer
			if err := wire.WriteMsg(&frame, kind, fields...); err != nil {
				t.Fatal(err)
			}
			fb := frame.Bytes()
			emit("whole", fb)
			// Truncated mid-frame: the header's promise outlives the bytes.
			emit("trunc", fb[:len(fb)*3/5])
			// One bit flipped a third of the way in.
			flipped := append([]byte(nil), fb...)
			flipped[len(flipped)/3] ^= 0x10
			emit("flip", flipped)
		}
	}
	if count < 10 {
		t.Fatalf("capture produced only %d seeds; sessions did not record", count)
	}
	t.Logf("wrote %d recorded-session seeds", count)
}
