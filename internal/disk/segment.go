package disk

// Segment files. A segment is an append-only file of checksummed
// records behind an 8-byte magic header:
//
//	"PPKLOG1\n"
//	[u32 length][u32 crc32c(payload)][payload] ...
//
// Lengths and checksums are big-endian; the checksum is CRC-32C
// (Castagnoli), the same polynomial journaling filesystems and most
// storage engines use. Segments are named seg-%08d.log with a strictly
// increasing sequence number, so lexicographic and numeric replay order
// agree; compaction output and fresh append segments both take the next
// number, which is what keeps "replay files in order" equal to "replay
// records in append order" across compactions.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// segMagic opens every segment file.
const segMagic = "PPKLOG1\n"

// maxRecordBytes bounds one record's announced length: larger than any
// record the store can produce (a snapshot of a wire-shippable state
// plus framing), small enough that a corrupted length cannot drive a
// giant allocation during replay.
const maxRecordBytes = 96 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func segName(seq int) string { return fmt.Sprintf("seg-%08d.log", seq) }

// parseSegName extracts the sequence number, reporting whether name is a
// segment file.
func parseSegName(name string) (int, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".log"))
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// listSegments returns the directory's segment sequence numbers,
// ascending.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if n, ok := parseSegName(e.Name()); ok {
			seqs = append(seqs, n)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// checkRecordSize refuses records recovery would reject: writing one
// would make the next open treat it as corruption and truncate
// everything after it. Surfacing the error at write time makes the
// owning store fail-stop instead. (Shared by the append path and
// compaction's emitter — the bound must be one number.)
func checkRecordSize(record []byte) error {
	if len(record) > maxRecordBytes {
		return fmt.Errorf("disk: %d-byte record exceeds the %d replay limit", len(record), maxRecordBytes)
	}
	return nil
}

// appendFrame appends one framed record to buf: length, checksum,
// payload.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// framedLen is the on-disk size of a payload once framed.
func framedLen(payload []byte) int64 { return int64(8 + len(payload)) }

// segScan is one segment's decoded contents: its records in append
// order, the number of bytes that parsed cleanly (header included), and
// whether the file ended mid-record or failed a checksum — the torn-tail
// signal. Scans are independent per segment, so Open runs them
// concurrently and applies the results in sequence order.
type segScan struct {
	seq  int
	ops  []scanOp
	good int64
	torn bool
	err  error
}

// scanSegmentOps decodes the segment at path from byte offset from
// (clamped to just past the magic header, which is always verified).
// A non-zero from lets the checkpoint path skip the already-decoded
// head record. I/O errors other than EOF, and an intact record of a kind
// this build does not know, surface as err. The read buffer is
// segBufBytes: a checkpoint-seeded open scans only the few records past
// the checkpoint, and pays for the buffer whether it fills it or not.
func scanSegmentOps(path string, seq int, from int64) segScan {
	res := segScan{seq: seq}
	f, err := os.Open(path)
	if err != nil {
		res.err = err
		return res
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, segBufBytes)

	var magic [len(segMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			res.torn = true
			return res
		}
		res.err = err
		return res
	}
	if string(magic[:]) != segMagic {
		res.torn = true
		return res
	}
	res.good = int64(len(segMagic))
	if from > res.good {
		// Seek, don't read: the skipped prefix is the checkpoint record the
		// probe already decoded, megabytes the scan would otherwise pull
		// through its buffer just to discard. The probe's frame read proves
		// the file extends to from; a shorter file is a torn prefix.
		if st, err := f.Stat(); err != nil || st.Size() < from {
			res.torn = true
			return res
		}
		if _, err := f.Seek(from, io.SeekStart); err != nil {
			res.err = err
			return res
		}
		r.Reset(f)
		res.good = from
	}

	var hdr [8]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return res // clean end of segment
			}
			if err == io.ErrUnexpectedEOF {
				res.torn = true
				return res
			}
			res.err = err
			return res
		}
		length := binary.BigEndian.Uint32(hdr[0:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if length > maxRecordBytes {
			res.torn = true
			return res
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				res.torn = true
				return res
			}
			res.err = err
			return res
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			res.torn = true
			return res
		}
		op, err := decodeRecord(payload, res.good)
		if errors.Is(err, errUnknownKind) {
			// A newer format's record, intact: refuse, never truncate.
			res.err = fmt.Errorf("record at offset %d: %w", res.good, err)
			return res
		}
		if err != nil {
			// The checksum passed but the payload does not parse: a
			// format mismatch is handled like corruption — keep the
			// prefix, drop the rest.
			res.torn = true
			return res
		}
		res.ops = append(res.ops, op)
		res.good += framedLen(payload)
	}
}

// readFrameAt reads and checksum-verifies the single framed record at
// offset off, returning its payload and the offset just past the frame.
// It is the random-access complement to scanSegmentOps: checkpoint
// probing reads a segment's head record with it, lazy object loads
// re-read one record mid-file. The payload is allocated with room spare
// bytes of capacity past its end, for a caller that grows it in place.
func readFrameAt(f io.ReaderAt, off int64, room int) (payload []byte, end int64, err error) {
	var hdr [8]byte
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return nil, 0, err
	}
	length := binary.BigEndian.Uint32(hdr[0:4])
	sum := binary.BigEndian.Uint32(hdr[4:8])
	if length > maxRecordBytes {
		return nil, 0, fmt.Errorf("frame at %d announces %d bytes", off, length)
	}
	payload = make([]byte, length, int(length)+room)
	if _, err := f.ReadAt(payload, off+8); err != nil {
		return nil, 0, err
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, 0, fmt.Errorf("frame at %d fails its checksum", off)
	}
	return payload, off + 8 + int64(length), nil
}

// segBufBytes sizes the segment write buffer and the scan read buffer.
// Both are allocated, and zeroed, on every open, so their size is paid
// per open whatever the open goes on to do. 64 KiB holds the few records
// one mutation appends (Flush writes once per mutation, and a record
// larger than the buffer bypasses it), and the short tail a
// checkpoint-seeded open scans, so a larger buffer saves no write and no
// read there; a full replay reads a 64 MiB segment in a thousand steps,
// few beside the records it decodes.
const segBufBytes = 64 << 10

// newSegWriter wraps a segment file in the log's standard write buffer
// (segBufBytes).
func newSegWriter(f *os.File) *bufio.Writer { return bufio.NewWriterSize(f, segBufBytes) }

// createSegment creates the segment file for seq with its header
// written, failing if it already exists.
func createSegment(dir string, seq int) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, segName(seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// syncDir fsyncs the directory so renames, creations and deletions of
// segment files are themselves durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
