package pagefile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// A WAL record is one commit: the post-commit header state and one entry per
// page the commit touched.  An entry does not carry the page, it carries what
// changed — the byte ranges ("runs") in which the page's post-image differs
// from its last committed image, the one the records before it in the chain
// left (or the data file's, for the first record that touches the page).
// The WAL holds the chain of records since the last checkpoint, in LSN
// order, each appended at the tail.
//
// Record layout (little-endian):
//
//	[0:8]   walMagic
//	[8:16]  LSN
//	[16:24] post-commit page count
//	[24:28] page size (records are self-describing so a torn header does
//	        not strand the replay without the geometry it needs)
//	[28:32] meta length
//	[32:36] entry count
//	[36:44] entries length in bytes
//	[44:...] meta bytes, then the entries in ascending page order
//	[...:+4] CRC32-C over everything above
//
// Entry layout:
//
//	[8] page ID
//	[1] kind (entryDeltaOnDisk or entryDeltaOnZero)
//	[4] CRC32-C of the page's post-image
//	uvarint run count, then per run:
//	    uvarint gap (bytes skipped since the previous run's end)
//	    uvarint length (at least 1)
//	    length bytes
//
// A freed page has no entry: the file's free list is not logged.
//
// entryDeltaOnDisk runs apply over the page as the chain so far left it;
// entryDeltaOnZero runs apply over zeros, so replay need not read the file
// for them: that is every page at or beyond the committed page count, every
// page the window took from the free list without asking for it whose
// non-zero bytes log smaller than its delta from the unrelated page it held,
// and every page whose runs would not be smaller than the page, logged as
// one run covering all of it.
//
// Replaying the chain is idempotent — runs are absolute bytes at absolute
// offsets — and safe against a torn checkpoint provided a partial
// write leaves a mix of old and new sectors, never garbage: every byte some
// entry covers ends at the value the last such entry wrote, and every byte
// no entry covers is the same in the checkpoint's base and its final image,
// so replaying the chain over any mix yields the final image, and the final
// post-image checksum confirms it.
const walHeaderSize = 44

const (
	entryDeltaOnDisk = 0
	entryDeltaOnZero = 1
)

// The classes Stats splits a commit's logged entry bytes into (see
// Stats.WALBytesPreferred and the fields after it).
const (
	walPreferred = iota
	walElsewhere
	walInPlace
	walPastEnd
	walClasses
)

// runMergeGap is the longest stretch of unchanged bytes folded into a run:
// starting a new run costs about as much as carrying that many.
const runMergeGap = 3

// byteRun is one differing range of a page: [off, off+n).
type byteRun struct{ off, n int }

type walEntry struct {
	id   PageID
	kind byte
	crc  uint32 // checksum of the post-image
	runs []byte // the encoded runs, validated by decode
}

// walRecord is one decoded commit record.
type walRecord struct {
	header
	entries []walEntry
}

// diffRuns appends to runs the ranges in which img differs from base.
func diffRuns(runs []byteRun, base, img []byte) []byteRun {
	n := len(img)
	for i := 0; i < n; {
		for i+8 <= n && binary.LittleEndian.Uint64(base[i:]) == binary.LittleEndian.Uint64(img[i:]) {
			i += 8
		}
		for i < n && base[i] == img[i] {
			i++
		}
		if i == n {
			break
		}
		end := i + 1
		for j := end; j < n && j-end <= runMergeGap; j++ {
			if base[j] != img[j] {
				end = j + 1
			}
		}
		runs = append(runs, byteRun{i, end - i})
		i = end
	}
	return runs
}

// runsSize is about the bytes runs cost in an entry: their data and a few
// bytes of varints each.
func runsSize(runs []byteRun) int {
	size := 0
	for _, r := range runs {
		size += r.n + 3
	}
	return size
}

// appendRuns encodes runs of img onto buf.
func appendRuns(buf []byte, runs []byteRun, img []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(runs)))
	prev := 0
	for _, r := range runs {
		buf = binary.AppendUvarint(buf, uint64(r.off-prev))
		buf = binary.AppendUvarint(buf, uint64(r.n))
		buf = append(buf, img[r.off:r.off+r.n]...)
		prev = r.off + r.n
	}
	return buf
}

// walkRuns parses an encoded run list for a page of pageSize bytes, calling
// fn (when non-nil) with each run's offset and bytes, and returns how many
// bytes of buf the list occupies.  Every length is checked against both the
// page and buf before it is used.
func walkRuns(buf []byte, pageSize int, fn func(off int, data []byte)) (int, error) {
	count, p := binary.Uvarint(buf)
	if p <= 0 || count > uint64(pageSize) {
		return 0, fmt.Errorf("%w: WAL run count", ErrCorrupt)
	}
	end := 0
	for ; count > 0; count-- {
		gap, k := binary.Uvarint(buf[p:])
		if k <= 0 {
			return 0, fmt.Errorf("%w: WAL run offset", ErrCorrupt)
		}
		p += k
		n, k := binary.Uvarint(buf[p:])
		if k <= 0 {
			return 0, fmt.Errorf("%w: WAL run length", ErrCorrupt)
		}
		p += k
		if n == 0 || gap > uint64(pageSize-end) || n > uint64(pageSize-end)-gap {
			return 0, fmt.Errorf("%w: WAL run overruns the page", ErrCorrupt)
		}
		if n > uint64(len(buf)-p) {
			return 0, fmt.Errorf("%w: WAL run overruns the record", ErrCorrupt)
		}
		off := end + int(gap)
		if fn != nil {
			fn(off, buf[p:p+int(n)])
		}
		p += int(n)
		end = off + int(n)
	}
	return p, nil
}

// applyRuns patches a validated run list onto page.
func applyRuns(page, runs []byte) {
	walkRuns(runs, len(page), func(off int, data []byte) { copy(page[off:], data) })
}

// encodeWALRecord cuts the commit record for f.ids into f.walBuf.  Pages
// below the committed count are diffed against their last committed image:
// the held image, else the data file's bytes (internal I/O, not a counted
// page read).
func (f *diskFile) encodeWALRecord(hdr *header) error {
	// A bulk window gets its buffer in one step, sized for the worst case of
	// every page a full image: growing by doubling through a bulk load's
	// record would leave several times its size behind as garbage.  Ordinary
	// windows reuse the buffer the last commit grew.
	const entryOverhead = 8 + 1 + 4 + 3*binary.MaxVarintLen32
	buf := f.walBuf[:0]
	if worst := walHeaderSize + len(hdr.meta) + len(f.ids)*(entryOverhead+f.pageSize) + 4; worst > maxWALScratch {
		buf = slices.Grow(buf, worst)
	}
	buf = append(buf, walMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, hdr.lsn)
	buf = binary.LittleEndian.AppendUint64(buf, hdr.nPages)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.pageSize))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hdr.meta)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.ids)))
	buf = binary.LittleEndian.AppendUint64(buf, 0) // entries length, patched below
	buf = append(buf, hdr.meta...)
	entriesStart := len(buf)

	f.classBytes = [walClasses]uint64{}
	for _, id := range f.ids {
		start := len(buf)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
		img := f.staged[id]
		kind, base := byte(entryDeltaOnZero), f.zero
		class := walPastEnd
		if uint64(id) < f.head.nPages {
			class = walInPlace
			if preferred, ok := f.reusedIn[id]; ok {
				class = walElsewhere
				if preferred {
					class = walPreferred
				}
			}
			kind, base = entryDeltaOnDisk, f.held[id]
			if base == nil {
				if err := f.committedImageLocked(id, f.base); err != nil {
					f.walBuf = buf[:0]
					return fmt.Errorf("pagefile: before-image: %w", err)
				}
				base = f.base
			}
		}
		f.runs = diffRuns(f.runs[:0], base, img)
		size := runsSize(f.runs)
		if class == walElsewhere {
			// The page's last image is an unrelated page's: its non-zero
			// bytes alone may log smaller than its difference from them.
			f.zeroRuns = diffRuns(f.zeroRuns[:0], f.zero, img)
			if z := runsSize(f.zeroRuns); z < size {
				kind, size = entryDeltaOnZero, z
				f.runs, f.zeroRuns = f.zeroRuns, f.runs
			}
		}
		if size >= f.pageSize {
			kind = entryDeltaOnZero
			f.runs = append(f.runs[:0], byteRun{0, f.pageSize})
		}
		buf = append(buf, kind)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(img, crcTable))
		buf = appendRuns(buf, f.runs, img)
		f.classBytes[class] += uint64(len(buf) - start)
	}

	binary.LittleEndian.PutUint64(buf[36:44], uint64(len(buf)-entriesStart))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
	f.walBuf = buf
	return nil
}

// decodeWALRecord parses one record from buf, returning it and the bytes
// consumed.  A nil record with nil error means buf holds no (further)
// record; a nil record with a non-nil error means a torn or corrupt record.
// The record carries its own page size; a non-zero wantPageSize is checked
// against it.  The returned entries alias buf.
func decodeWALRecord(buf []byte, wantPageSize int) (*walRecord, int, error) {
	if len(buf) < walHeaderSize {
		if isAllZero(buf) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("%w: truncated WAL record header", ErrCorrupt)
	}
	if !bytes.Equal(buf[0:8], walMagic[:]) {
		if isAllZero(buf[:8]) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("%w: bad WAL record magic", ErrCorrupt)
	}
	pageSize := int(binary.LittleEndian.Uint32(buf[24:28]))
	if pageSize < minDiskPageSize || pageSize > maxDiskPageSize {
		return nil, 0, fmt.Errorf("%w: WAL record page size %d", ErrCorrupt, pageSize)
	}
	if wantPageSize != 0 && pageSize != wantPageSize {
		return nil, 0, fmt.Errorf("%w: WAL record page size %d, want %d", ErrCorrupt, pageSize, wantPageSize)
	}
	metaLen := binary.LittleEndian.Uint32(buf[28:32])
	count := binary.LittleEndian.Uint32(buf[32:36])
	entriesLen := binary.LittleEndian.Uint64(buf[36:44])
	if metaLen > metaMax {
		return nil, 0, fmt.Errorf("%w: WAL meta length %d", ErrCorrupt, metaLen)
	}
	rest := uint64(len(buf) - walHeaderSize)
	if need := uint64(metaLen) + 4; rest < need || entriesLen > rest-need {
		return nil, 0, fmt.Errorf("%w: torn WAL record (%d bytes, header claims %d of entries)", ErrCorrupt, len(buf), entriesLen)
	}
	total := walHeaderSize + int(metaLen) + int(entriesLen) + 4
	if crc32.Checksum(buf[:total-4], crcTable) != binary.LittleEndian.Uint32(buf[total-4:total]) {
		return nil, 0, fmt.Errorf("%w: WAL record checksum mismatch", ErrCorrupt)
	}
	rec := &walRecord{
		header: header{
			pageSize: pageSize,
			nPages:   binary.LittleEndian.Uint64(buf[16:24]),
			lsn:      binary.LittleEndian.Uint64(buf[8:16]),
		},
	}
	if metaLen > 0 {
		rec.meta = append([]byte(nil), buf[walHeaderSize:walHeaderSize+metaLen]...)
	}

	// The checksum vouches for the bytes, not for the writer: every entry is
	// still parsed defensively, and nothing is sized by a claimed count.
	body := buf[walHeaderSize+int(metaLen) : total-4]
	for p := 0; p < len(body); {
		if len(body)-p < 9 {
			return nil, 0, fmt.Errorf("%w: truncated WAL entry", ErrCorrupt)
		}
		e := walEntry{id: PageID(binary.LittleEndian.Uint64(body[p:])), kind: body[p+8]}
		p += 9
		if uint64(e.id) >= rec.nPages {
			return nil, 0, fmt.Errorf("%w: WAL entry for page %d of %d", ErrCorrupt, e.id, rec.nPages)
		}
		if n := len(rec.entries); n > 0 && rec.entries[n-1].id >= e.id {
			return nil, 0, fmt.Errorf("%w: WAL entries out of page order", ErrCorrupt)
		}
		if e.kind != entryDeltaOnDisk && e.kind != entryDeltaOnZero {
			return nil, 0, fmt.Errorf("%w: WAL entry kind %d", ErrCorrupt, e.kind)
		}
		if len(body)-p < 4 {
			return nil, 0, fmt.Errorf("%w: truncated WAL delta entry", ErrCorrupt)
		}
		e.crc = binary.LittleEndian.Uint32(body[p:])
		p += 4
		n, err := walkRuns(body[p:], pageSize, nil)
		if err != nil {
			return nil, 0, err
		}
		e.runs = body[p : p+n]
		p += n
		rec.entries = append(rec.entries, e)
	}
	if uint32(len(rec.entries)) != count {
		return nil, 0, fmt.Errorf("%w: WAL record holds %d entries, header claims %d", ErrCorrupt, len(rec.entries), count)
	}
	return rec, total, nil
}

func isAllZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

func readAll(b backing) ([]byte, error) {
	var out []byte
	buf := make([]byte, 1<<16)
	var off int64
	for {
		n, err := b.ReadAt(buf, off)
		out = append(out, buf[:n]...)
		off += int64(n)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
	}
}
