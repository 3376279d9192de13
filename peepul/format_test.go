package peepul_test

import (
	"bytes"
	"errors"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/counter"
	"repro/internal/disk"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/peepul"
)

// Tests of the state-address format generation: commits pin states by
// the root of their chunk tree (store.StateAddr), and a log written under
// the older address — the SHA-256 of the whole encoding — must be
// neither read nor written by this build, nor a log of this build by an
// older one.

// readTree returns every file under dir by its path relative to dir.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err == nil {
			files[rel], err = os.ReadFile(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// openCounter opens object "counter" as a pn-counter on node name storing
// under dir, and closes the node again.
func openCounter(t *testing.T, name, dir string) error {
	t.Helper()
	n, err := peepul.NewNode(name, 1, peepul.WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	_, err = peepul.Open(n, peepul.PNCounter, "counter")
	return err
}

// TestOlderLogRefused: a log an older build wrote is refused at open with
// an error naming the address format, and every file of it is left as it
// was. testdata/sha256-addressed is such a log, a pn-counter object
// "counter" after five increments, written by the build before chunk-tree
// addresses; a log with history and no datatype guard at all predates the
// guard, so its addresses are the old ones too.
func TestOlderLogRefused(t *testing.T) {
	t.Run("bare guard", func(t *testing.T) {
		dir := t.TempDir()
		for name, data := range readTree(t, "testdata/sha256-addressed") {
			path := filepath.Join(dir, name)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		checkRefused(t, dir)
	})
	t.Run("no guard", func(t *testing.T) {
		dir := t.TempDir()
		log, rec, err := disk.Open(filepath.Join(dir, "obj-counter"))
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.OpenRecovered[counter.PNState, counter.Op, counter.Val](counter.PNCounter{}, wire.PNCounter{}, "old", 64, &rec.State, store.WithPersister(log))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Apply("old", counter.Op{Kind: counter.Inc, N: 1}); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		checkRefused(t, dir)
	})
}

func checkRefused(t *testing.T, dir string) {
	t.Helper()
	before := readTree(t, dir)
	err := openCounter(t, "old", dir)
	if !errors.Is(err, peepul.ErrObject) || !strings.Contains(err.Error(), "older build") || !strings.Contains(err.Error(), "chunk tree") {
		t.Fatalf("opening a log of an older build: %v, want ErrObject naming the older build and the address format", err)
	}
	if after := readTree(t, dir); !maps.EqualFunc(before, after, bytes.Equal) {
		t.Fatalf("the refused open changed the log's files: %d files before, %d after", len(before), len(after))
	}
}

// TestNewLogRefusedByOlderGuard: the guard a log of this build carries
// fails the comparison an older build makes — its bare datatype name
// against the log's guard — so an older build refuses the log as one of
// another datatype instead of misreading its addresses. This build
// reopens it.
func TestNewLogRefusedByOlderGuard(t *testing.T) {
	dir := t.TempDir()
	n, err := peepul.NewNode("new", 1, peepul.WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	obj, err := peepul.Open(n, peepul.PNCounter, "counter")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Do(counter.Op{Kind: counter.Inc, N: 3}); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	log, _, err := disk.Open(filepath.Join(dir, "obj-counter"))
	if err != nil {
		t.Fatal(err)
	}
	dt, ok := log.Meta("datatype")
	log.Close()
	// The older build's check, verbatim: a guard that is present and
	// differs from the datatype refuses the log.
	if olderRefuses := ok && dt != "pn-counter"; !olderRefuses {
		t.Fatalf("log guard %q (present %v): an older build would read this log", dt, ok)
	}
	if err := openCounter(t, "new", dir); err != nil {
		t.Fatalf("this build reopening its own log: %v", err)
	}
}
