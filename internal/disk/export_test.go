package disk

import (
	"maps"
	"path/filepath"

	"repro/internal/store"
)

// Record kinds the crash tests tell segment heads apart by.
const (
	RecCommit          = recCommit
	RecCheckpoint      = recCheckpoint
	RecCheckpointDelta = recCheckpointDelta
)

// NewestDeltaBase returns the path of the segment headed by the full
// checkpoint that the newest delta checkpoint in dir names; ok is false
// when no segment heads with a valid delta.
func NewestDeltaBase(dir string) (path string, ok bool) {
	seqs, err := listSegments(dir)
	if err != nil {
		return "", false
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		if ck, _, _, ok := probeCheckpoint(filepath.Join(dir, segName(seqs[i])), 0); ok && ck.base != nil {
			return filepath.Join(dir, segName(ck.base.seg)), true
		}
	}
	return "", false
}

// Frame frames payload as one record: length, CRC-32C, payload.
func Frame(payload []byte) []byte { return appendFrame(nil, payload) }

// ForgeCheckpointSegment adds a segment to dir, after every existing one,
// headed by a CRC-valid full checkpoint whose index holds only commit c
// under hash h and a snapshot object for c.State said to sit at the head
// of the first segment, with branches as its tail: entries no record of
// the log carries.
func ForgeCheckpointSegment(dir string, h store.Hash, c store.Commit, branches map[string]store.BranchRecord) error {
	seqs, err := listSegments(dir)
	if err != nil {
		return err
	}
	sh := newShadow()
	sh.commits[h] = c
	sh.objects[c.State] = objLoc{size: 1, stored: 1, seg: seqs[0], off: int64(len(segMagic))}
	maps.Copy(sh.branches, branches)
	record, _ := encodeCheckpoint(nil, &sh, false)
	f, err := createSegment(dir, seqs[len(seqs)-1]+1)
	if err != nil {
		return err
	}
	_, err = f.Write(appendFrame(nil, record))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
