// Package journal is the durability kernel of the labeling service: an
// append-only, fsync-on-commit record log with a length+CRC framed
// binary codec. The server writes one journal per session (session
// created / round opened / answer accepted / round sealed / checkpoint
// emitted — the record *types* are the caller's vocabulary; this
// package only guarantees that whatever was acknowledged by a Sync is
// readable after a crash, and that a torn tail — a write cut mid-frame
// by kill -9 or power loss — is detected by its CRC and cleanly
// discarded rather than surfaced as a corrupt record.
//
// File layout:
//
//	8 bytes   magic "HCJRNL01"
//	frames    uint32 LE length N (type byte + payload, N >= 1)
//	          N bytes: 1 type byte, N-1 payload bytes
//	          uint32 LE CRC32-C over the N bytes
//
// Appends go to the end; there is no in-place mutation. Compaction
// (Writer.Reset) replaces the whole file through ReplaceFile — temp
// file, fsync, rename, directory fsync — so every crash point leaves
// either the old log or the new one, never a mix.
package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// magic identifies a journal file (and its format version).
var magic = []byte("HCJRNL01")

// MaxRecordSize bounds one record's framed length (type byte +
// payload). A corrupt length prefix larger than this reads as a torn
// tail instead of a multi-gigabyte allocation.
const MaxRecordSize = 1 << 26

// ErrNotJournal is returned by Open/Decode when the file exists, is at
// least header-sized, and carries the wrong magic — a different file
// handed to the journal layer, which truncating would destroy.
var ErrNotJournal = errors.New("journal: bad magic (not a journal file)")

// Record is one journaled event: a caller-defined type byte and an
// opaque payload.
type Record struct {
	Type    byte
	Payload []byte
}

// castagnoli is the CRC-32C table (the same polynomial storage systems
// use for frame checksums, with hardware support on common CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameSize is the on-disk size of one record's frame.
func frameSize(r Record) int64 { return int64(4 + 1 + len(r.Payload) + 4) }

// appendFrame appends r's frame to buf and returns the result.
func appendFrame(buf []byte, r Record) []byte {
	n := 1 + len(r.Payload)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	body := make([]byte, 0, n)
	body = append(body, r.Type)
	body = append(body, r.Payload...)
	buf = append(buf, body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, castagnoli))
}

// Decode parses a whole journal image (header included). It returns the
// intact records and the byte offset where the clean prefix ends; bytes
// past that offset are a torn tail (an interrupted write) and should be
// truncated by the caller. A torn tail is NOT an error — it is the
// crash case the journal exists for. The only error is ErrNotJournal:
// a full-size header with the wrong magic, which no crash of ours can
// produce.
func Decode(data []byte) (recs []Record, good int64, err error) {
	if len(data) < len(magic) {
		if bytes.Equal(data, magic[:len(data)]) {
			return nil, 0, nil // torn header: Create was cut mid-write
		}
		return nil, 0, ErrNotJournal
	}
	if !bytes.Equal(data[:len(magic)], magic) {
		return nil, 0, ErrNotJournal
	}
	off := int64(len(magic))
	for {
		rest := data[off:]
		if len(rest) < 4 {
			return recs, off, nil
		}
		n := binary.LittleEndian.Uint32(rest)
		if n < 1 || n > MaxRecordSize {
			return recs, off, nil // corrupt length: treat as torn tail
		}
		if int64(len(rest)) < int64(4+n+4) {
			return recs, off, nil
		}
		body := rest[4 : 4+n]
		sum := binary.LittleEndian.Uint32(rest[4+n:])
		if crc32.Checksum(body, castagnoli) != sum {
			return recs, off, nil // torn or corrupt frame
		}
		recs = append(recs, Record{Type: body[0], Payload: append([]byte(nil), body[1:]...)})
		off += int64(4+n) + 4
	}
}

// Writer appends records to one journal file. It is not safe for
// concurrent use; the owning session serializes access. Append buffers
// nothing — every frame goes straight to the file — but durability is
// only guaranteed after Sync returns.
type Writer struct {
	path string
	f    *os.File
	size int64
}

// Create makes a new journal at path (failing if one exists), writes
// the header, and syncs both the file and its directory so the journal
// itself survives a crash right after creation.
func Create(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{path: path, f: f, size: int64(len(magic))}
	if _, err := f.Write(magic); err != nil {
		f.Close() //hclint:ignore errcheck-lite create failed; the write error is what gets reported
		os.Remove(path)
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close() //hclint:ignore errcheck-lite create failed; the sync error is what gets reported
		os.Remove(path)
		return nil, err
	}
	if err := SyncDir(path); err != nil {
		f.Close() //hclint:ignore errcheck-lite create failed; the dir-sync error is what gets reported
		os.Remove(path)
		return nil, err
	}
	return w, nil
}

// Open reads an existing journal, truncates any torn tail, and returns
// a Writer positioned for further appends plus every intact record in
// order. A header cut mid-write (crash during Create) reads as an empty
// journal and is repaired in place.
func Open(path string) (*Writer, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close() //hclint:ignore errcheck-lite open failed; the read error is what gets reported
		return nil, nil, err
	}
	recs, good, err := Decode(data)
	if err != nil {
		f.Close() //hclint:ignore errcheck-lite open failed; ErrNotJournal is what gets reported
		return nil, nil, fmt.Errorf("journal %s: %w", path, err)
	}
	if good < int64(len(magic)) {
		// Torn header: rewrite it so the file is a valid empty journal.
		if err := f.Truncate(0); err != nil {
			f.Close() //hclint:ignore errcheck-lite repair failed; the truncate error is what gets reported
			return nil, nil, err
		}
		if _, err := f.WriteAt(magic, 0); err != nil {
			f.Close() //hclint:ignore errcheck-lite repair failed; the write error is what gets reported
			return nil, nil, err
		}
		good = int64(len(magic))
	} else if good < int64(len(data)) {
		if err := f.Truncate(good); err != nil {
			f.Close() //hclint:ignore errcheck-lite repair failed; the truncate error is what gets reported
			return nil, nil, err
		}
	}
	if good != int64(len(data)) {
		if err := f.Sync(); err != nil {
			f.Close() //hclint:ignore errcheck-lite repair failed; the sync error is what gets reported
			return nil, nil, err
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close() //hclint:ignore errcheck-lite open failed; the seek error is what gets reported
		return nil, nil, err
	}
	return &Writer{path: path, f: f, size: good}, recs, nil
}

// Path returns the journal's file path.
func (w *Writer) Path() string { return w.path }

// Size returns the journal's current byte size (clean prefix + appends).
func (w *Writer) Size() int64 { return w.size }

// Append writes one record's frame. The record is durable only after a
// later Sync; callers sync at their commit points (an acked answer, a
// sealed round, an emitted checkpoint), letting cheaper records ride on
// the next commit's fsync.
func (w *Writer) Append(r Record) error {
	if w.f == nil {
		return errors.New("journal: writer closed")
	}
	if 1+len(r.Payload) > MaxRecordSize {
		return fmt.Errorf("journal: record of %d bytes exceeds max %d", 1+len(r.Payload), MaxRecordSize)
	}
	frame := appendFrame(make([]byte, 0, frameSize(r)), r)
	if _, err := w.f.Write(frame); err != nil {
		return err
	}
	w.size += int64(len(frame))
	return nil
}

// Sync flushes appended frames to stable storage — the commit point.
func (w *Writer) Sync() error {
	if w.f == nil {
		return errors.New("journal: writer closed")
	}
	return w.f.Sync()
}

// Close releases the file. The journal stays on disk for recovery.
func (w *Writer) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// Reset atomically replaces the journal's contents with recs — the
// compaction primitive: the caller folds the log's prefix into a
// checkpoint record and Reset installs the shortened log through
// ReplaceFile, so a crash at any point leaves either the full old log or
// the complete new one. On success the Writer appends to the new file.
func (w *Writer) Reset(recs []Record) error {
	if w.f == nil {
		return errors.New("journal: writer closed")
	}
	buf := append([]byte(nil), magic...)
	for _, r := range recs {
		if 1+len(r.Payload) > MaxRecordSize {
			return fmt.Errorf("journal: record of %d bytes exceeds max %d", 1+len(r.Payload), MaxRecordSize)
		}
		buf = appendFrame(buf, r)
	}
	if err := ReplaceFile(w.path, buf); err != nil {
		return err
	}
	f, err := os.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	old := w.f
	w.f = f
	w.size = int64(len(buf))
	// The old descriptor points at the unlinked pre-compaction file; its
	// close outcome cannot affect the new log's durability.
	old.Close() //hclint:ignore errcheck-lite closes the unlinked pre-compaction file; the new log is already synced and renamed
	return nil
}

// ReplaceFile atomically and durably replaces path's contents with data:
// write a temp file in path's directory, fsync and close it, rename it
// over path, then fsync the directory. It is the tree's one durable-write
// path — journal compaction, checkpoint files and handed-off journals all
// land through it. The rename makes the swap atomic; the file fsync keeps
// the new name from pointing at unwritten blocks, and the directory fsync
// keeps a crash from forgetting the rename. On any failure before the
// rename the temp file is removed and path is untouched; a failed
// directory fsync leaves the renamed file in place, not known durable.
func ReplaceFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return SyncDir(path)
}

// ReadFileSynced fsyncs path and returns its full contents — the read
// half of a handoff: records appended but not yet synced become durable
// before the bytes leave the process.
func ReadFileSynced(path string) ([]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	err = f.Sync()
	var data []byte
	if err == nil {
		data, err = io.ReadAll(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return data, nil
}

// SyncDir fsyncs the directory containing path, making a just-created
// or just-renamed entry durable: Create and ReplaceFile end with it. The
// rename itself is atomic, but without the directory fsync a crash can
// still forget that the new name exists. The call is on the errcheck
// must-check list — dropping its error silently re-opens that window.
func SyncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close() //hclint:ignore errcheck-lite dir-sync failed; the sync error is what gets reported
		return err
	}
	return d.Close()
}
