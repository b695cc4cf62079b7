package registry

// Compaction by concatenation. The registry is append-only, so the next
// snapshot body is the current one followed by the WAL's live frames (the
// frames with seq above the snapshot's lastSeq), and those bytes are
// already on disk and checksummed. extendSnapshot builds the new
// snapshot.wsx from them, streaming through fixed buffers and verifying as
// it copies, instead of re-marshalling every record from memory under the
// world lock. The memory path (buildSnapshotDoc over the log) stays for
// the case the bytes on disk cannot serve: a failed check, where it heals
// the rotted file.

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// copyBufSize is the size of each fixed buffer compaction streams through.
const copyBufSize = 64 << 10

// errStale marks compaction input that failed verification: a snapshot
// body whose checksum no longer matches, or a live WAL frame with a bad
// checksum, sequence number or epoch. snapshotLocked answers it by
// re-encoding the snapshot from memory.
var errStale = errors.New("on-disk log failed verification")

// snapFacts is what a durable store knows about the snapshot.wsx on disk
// and the WAL behind it — enough to extend the snapshot from those bytes.
// Open sets it in every recovery case; each compaction, SeedFromSnapshot
// and ResetReplica replace it.
type snapFacts struct {
	// valid is false when the files cannot be extended byte for byte:
	// the next compaction then re-encodes from memory.
	valid   bool
	count   int    // records in the snapshot body
	lastSeq uint64 // the header's lastSeq
	crc     uint32 // CRC-32 of the body
	bodyOff int64  // where the body starts in snapshot.wsx (header length)
	bodyLen int64  // body bytes holding the count records
	walOff  int64  // WAL offset of the first live frame
}

// denseFrames reports whether a snapshot body holds exactly what
// buildSnapshotDoc writes for its records: dense sequence numbers ending
// at lastSeq, each frame stamped with the epoch the marks give it.
func denseFrames(frames []snapFrame, lastSeq uint64, marks []EpochMark) bool {
	if lastSeq < uint64(len(frames)) {
		return false
	}
	base := lastSeq - uint64(len(frames))
	for i, fr := range frames {
		if fr.seq != base+uint64(i)+1 || fr.epoch != epochAt(marks, fr.seq) {
			return false
		}
	}
	return true
}

// extendSnapshot writes the next snapshot.wsx as the current body followed
// by the WAL's live frames, verifying both on the way: the body against
// the CRC recorded when it was written or opened, each live frame against
// its own CRC, the sequence number it must carry and the epoch the marks
// give it. The header goes first with a placeholder checksum, patched in
// place once crc32.Update has run over the whole body. It returns the
// facts of the new file. A failed check returns an error wrapping errStale
// and leaves snapshot.wsx as it was; any other error is an I/O failure of
// the write itself.
//
//lint:guarded extendSnapshot runs with s.state held exclusively (snapshotLocked)
func (s *Store) extendSnapshot() (snapFacts, error) {
	old, w := s.snap, s.wal
	info, err := w.f.Stat()
	if err != nil {
		return snapFacts{}, fmt.Errorf("%w: stat wal: %v", errStale, err)
	}
	liveLen := info.Size() - old.walOff
	if liveLen < 0 {
		return snapFacts{}, fmt.Errorf("%w: wal is %d bytes, live frames start at %d", errStale, info.Size(), old.walOff)
	}
	v := s.log.view()
	next := snapFacts{valid: true, count: v.n, bodyLen: old.bodyLen + liveLen}
	if v.n > 0 {
		next.lastSeq = v.at(v.n - 1).seq
	}
	head := fmt.Appendf(nil, "%s %d %d ", snapPrefixV2, next.count, next.lastSeq)
	crcAt := int64(len(head))
	head = fmt.Appendf(head, "%08x %d\n", 0, next.bodyLen)
	next.bodyOff = int64(len(head))
	marks := s.Marks()

	err = replaceFile(w.dir, snapshotName, func(f *os.File) error {
		bw := bufio.NewWriterSize(f, copyBufSize)
		if _, err := bw.Write(head); err != nil {
			return err
		}
		crc, err := copyBody(bw, filepath.Join(w.dir, snapshotName), old)
		if err != nil {
			return err
		}
		if next.crc, err = copyLive(bw, w.path, old, next, liveLen, marks, crc); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		_, err = f.WriteAt(appendHex8(nil, next.crc), crcAt)
		return err
	})
	if err != nil {
		return snapFacts{}, err
	}
	return next, nil
}

// copyBody copies the current snapshot body into dst and returns its
// CRC-32, which must match the one recorded for it.
func copyBody(dst io.Writer, path string, old snapFacts) (crc uint32, err error) {
	if old.bodyLen == 0 {
		return 0, nil
	}
	src, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("%w: open snapshot: %v", errStale, err)
	}
	defer func() {
		if cerr := src.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("%w: close snapshot: %v", errStale, cerr)
		}
	}()
	body := io.NewSectionReader(src, old.bodyOff, old.bodyLen)
	buf := make([]byte, copyBufSize)
	var n int64
	for {
		k, rerr := body.Read(buf)
		crc = crc32.Update(crc, crc32.IEEETable, buf[:k])
		n += int64(k)
		if _, err := dst.Write(buf[:k]); err != nil {
			return 0, err
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return 0, fmt.Errorf("%w: read snapshot body: %v", errStale, rerr)
		}
	}
	if n != old.bodyLen || crc != old.crc {
		return 0, fmt.Errorf("%w: snapshot body is %d bytes with crc %08x, recorded %d bytes with crc %08x",
			errStale, n, crc, old.bodyLen, old.crc)
	}
	return crc, nil
}

// copyLive copies the WAL's live frames into dst, continuing the body CRC
// over them, and returns the CRC of the whole new body. Every frame must
// be exactly what appendFrame renders, carry the next sequence number and
// the epoch the marks give it; together with the body they must hold the
// next.count records ending at next.lastSeq that the store holds in
// memory.
func copyLive(dst io.Writer, path string, old, next snapFacts, liveLen int64, marks []EpochMark, crc uint32) (_ uint32, err error) {
	src, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("%w: open wal: %v", errStale, err)
	}
	defer func() {
		if cerr := src.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("%w: close wal: %v", errStale, cerr)
		}
	}()
	r := bufio.NewReaderSize(io.NewSectionReader(src, old.walOff, liveLen), copyBufSize)
	// An empty body leaves the first live frame free to start anywhere:
	// the count and lastSeq checks below pin the run down.
	want, anyStart := old.lastSeq+1, old.count == 0
	var long []byte // holds a frame longer than the read buffer
	var n int
	var copied int64
	for {
		line, rerr := r.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for rerr == bufio.ErrBufferFull {
				line, rerr = r.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if rerr == io.EOF && len(line) == 0 {
			break
		}
		if rerr != nil {
			return 0, fmt.Errorf("%w: live frame %d: %v", errStale, n, rerr)
		}
		epoch, seq, ok := scanFrame(line)
		switch {
		case !ok:
			return 0, fmt.Errorf("%w: live frame %d is malformed or fails its checksum", errStale, n)
		case seq != want && !(anyStart && n == 0):
			return 0, fmt.Errorf("%w: live frame %d has seq %d, want %d", errStale, n, seq, want)
		case epoch != epochAt(marks, seq):
			return 0, fmt.Errorf("%w: live frame seq %d has epoch %d, marks say %d", errStale, seq, epoch, epochAt(marks, seq))
		}
		want = seq + 1
		n++
		copied += int64(len(line))
		crc = crc32.Update(crc, crc32.IEEETable, line)
		if _, err := dst.Write(line); err != nil {
			return 0, err
		}
	}
	if copied != liveLen || old.count+n != next.count || (next.count > 0 && want-1 != next.lastSeq) {
		return 0, fmt.Errorf("%w: disk holds %d records to seq %d, memory %d to seq %d",
			errStale, old.count+n, want-1, next.count, next.lastSeq)
	}
	return crc, nil
}

// scanFrame checks that line (newline included) is exactly the frame
// appendFrame renders for its payload — canonical prefix, epoch and
// sequence number, lowercase checksum that matches the payload — and
// returns its epoch and sequence number. It is stricter than ParseWire
// (which also takes leading zeros and uppercase hex) so that a copied
// frame is byte-identical to a re-encoded one, and it does not allocate.
func scanFrame(line []byte) (epoch, seq uint64, ok bool) {
	n := len(line)
	if n < 4 || line[n-1] != '\n' || line[0] != 'w' || line[2] != ' ' {
		return 0, 0, false
	}
	rest := line[3 : n-1]
	switch line[1] {
	case '1':
	case '2':
		if epoch, rest, ok = cutUint(rest); !ok || epoch == 0 {
			return 0, 0, false
		}
	default:
		return 0, 0, false
	}
	if seq, rest, ok = cutUint(rest); !ok || len(rest) < 9 || rest[8] != ' ' {
		return 0, 0, false
	}
	var want uint32
	for _, c := range rest[:8] {
		switch {
		case c >= '0' && c <= '9':
			want = want<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			want = want<<4 | uint32(c-'a'+10)
		default:
			return 0, 0, false
		}
	}
	return epoch, seq, crc32.ChecksumIEEE(rest[9:]) == want
}

// cutUint parses the canonical decimal (no sign, no leading zero) that
// runs up to the next space, and returns the bytes after that space.
func cutUint(b []byte) (v uint64, rest []byte, ok bool) {
	i := 0
	for ; i < len(b) && b[i] != ' '; i++ {
		d := uint64(b[i] - '0')
		if d > 9 || v > (math.MaxUint64-d)/10 {
			return 0, nil, false
		}
		v = v*10 + d
	}
	if i == 0 || i == len(b) || (b[0] == '0' && i > 1) {
		return 0, nil, false
	}
	return v, b[i+1:], true
}

// appendHex8 renders crc as eight lowercase hex digits, the checksum
// field of frames and snapshot headers.
func appendHex8(dst []byte, crc uint32) []byte {
	const hexdigits = "0123456789abcdef"
	var hex [8]byte
	for i := 7; i >= 0; i-- {
		hex[i] = hexdigits[crc&0xf]
		crc >>= 4
	}
	return append(dst, hex[:]...)
}
