package disk

import "path/filepath"

// Record kinds the crash tests tell segment heads apart by.
const (
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
