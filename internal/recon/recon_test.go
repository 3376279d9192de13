package recon

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"sort"
	"testing"
)

// item derives a pseudo-commit key from an integer: the integer's low
// bits double as the locality prefix, so items get distinct prefixes
// AND distinct addresses, exercising both halves of the key order.
func item(i int) Item {
	addr := sha256.Sum256([]byte{byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24)})
	return MakeItem(uint64(i%16), addr)
}

// refFingerprint is the oracle: XOR of the items, filtered by range.
func refFingerprint(items []Item, x, y Item) (Fingerprint, int) {
	var fp Fingerprint
	count := 0
	for _, it := range items {
		if inRange(it, x, y) {
			fp.XorItem(it)
			count++
		}
	}
	return fp, count
}

func TestAddLen(t *testing.T) {
	var tr Tree
	for i := 0; i < 100; i++ {
		if !tr.Add(item(i)) {
			t.Fatalf("Add(%d) reported no change", i)
		}
	}
	if tr.Add(item(7)) {
		t.Fatal("duplicate Add reported a change")
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tr.Len())
	}
}

func TestFingerprintIsOrderIndependent(t *testing.T) {
	items := make([]Item, 200)
	for i := range items {
		items[i] = item(i)
	}
	var a, b Tree
	for _, it := range items {
		a.Add(it)
	}
	rnd := rand.New(rand.NewSource(42))
	for _, i := range rnd.Perm(len(items)) {
		b.Add(items[i])
	}
	fa, ca := a.Root()
	fb, cb := b.Root()
	if fa != fb || ca != cb {
		t.Fatalf("insertion order changed the root: %x/%d vs %x/%d", fa[:6], ca, fb[:6], cb)
	}
	// Adding a present item is the identity.
	b.Add(items[13])
	if fb2, _ := b.Root(); fb2 != fb {
		t.Fatal("a duplicate Add changed the fingerprint")
	}
}

func TestRangeMatchesOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	var tr Tree
	var items []Item
	for i := 0; i < 500; i++ {
		it := item(i)
		items = append(items, it)
		tr.Add(it)
	}
	sorted := append([]Item(nil), items...)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i][:], sorted[j][:]) < 0 })

	bounds := []Item{{}, sorted[0], sorted[100], sorted[250], sorted[499], item(100000)}
	for trial := 0; trial < 200; trial++ {
		x := bounds[rnd.Intn(len(bounds))]
		y := bounds[rnd.Intn(len(bounds))]
		gotFP, gotN := tr.Range(x, y)
		wantFP, wantN := refFingerprint(items, x, y)
		if gotFP != wantFP || gotN != wantN {
			t.Fatalf("Range(%x, %x) = %x/%d, want %x/%d", x[:4], y[:4], gotFP[:6], gotN, wantFP[:6], wantN)
		}
	}
	// Full range equals the root.
	rootFP, rootN := tr.Root()
	fullFP, fullN := tr.Range(Item{}, Item{})
	if rootFP != fullFP || rootN != fullN {
		t.Fatal("full Range disagrees with Root")
	}
}

func TestItemsAndSelect(t *testing.T) {
	var tr Tree
	var items []Item
	for i := 0; i < 300; i++ {
		it := item(i)
		items = append(items, it)
		tr.Add(it)
	}
	sort.Slice(items, func(i, j int) bool { return bytes.Compare(items[i][:], items[j][:]) < 0 })

	got := tr.Items(nil, Item{}, Item{}, -1)
	if len(got) != len(items) {
		t.Fatalf("Items returned %d, want %d", len(got), len(items))
	}
	for i := range got {
		if got[i] != items[i] {
			t.Fatalf("Items[%d] out of order", i)
		}
	}
	// A bounded subrange with a cap.
	x, y := items[50], items[120]
	capped := tr.Items(nil, x, y, 10)
	if len(capped) != 10 {
		t.Fatalf("capped Items returned %d, want 10", len(capped))
	}
	for i := range capped {
		if capped[i] != items[50+i] {
			t.Fatalf("capped Items[%d] = %x, want %x", i, capped[i][:4], items[50+i][:4])
		}
	}
	// Select is the k-th item of the range.
	for _, k := range []int{0, 1, 35, 69} {
		it, ok := tr.Select(x, y, k)
		if !ok || it != items[50+k] {
			t.Fatalf("Select(k=%d) = %x/%v, want %x", k, it[:4], ok, items[50+k][:4])
		}
	}
	if _, ok := tr.Select(x, y, 70); ok {
		t.Fatal("Select past the range end reported ok")
	}
	if _, ok := tr.Select(x, y, -1); ok {
		t.Fatal("Select(-1) reported ok")
	}
}

func TestRandomizedChurnAgainstOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	var tr Tree
	ref := make(map[Item]bool)
	universe := make([]Item, 400)
	for i := range universe {
		universe[i] = item(i)
	}
	for step := 0; step < 5000; step++ {
		it := universe[rnd.Intn(len(universe))]
		if tr.Add(it) == ref[it] {
			t.Fatalf("step %d: Add change-report disagrees with oracle", step)
		}
		ref[it] = true
	}
	var want Fingerprint
	for it := range ref {
		want.XorItem(it)
	}
	gotFP, gotN := tr.Root()
	if gotN != len(ref) || gotFP != want {
		t.Fatalf("after churn: root %x/%d, want %x/%d", gotFP[:6], gotN, want[:6], len(ref))
	}
}

func TestDeterministicShape(t *testing.T) {
	// Equal sets must fingerprint equal regardless of construction
	// history, including sets built with duplicate adds.
	var a, b Tree
	for i := 0; i < 100; i++ {
		a.Add(item(i))
	}
	for i := 99; i >= 0; i-- {
		b.Add(item(i))
	}
	for i := 0; i < 100; i += 3 {
		b.Add(item(i))
	}
	fa, _ := a.Root()
	fb, _ := b.Root()
	if fa != fb {
		t.Fatal("equal sets disagree on fingerprint")
	}
	// And their range views agree everywhere.
	for i := 0; i < 100; i += 7 {
		x, y := item(i), Item{}
		af, an := a.Range(x, y)
		bf, bn := b.Range(x, y)
		if af != bf || an != bn {
			t.Fatalf("range view diverged at %d", i)
		}
	}
}
