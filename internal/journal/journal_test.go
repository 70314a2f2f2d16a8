package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func testPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "s.journal")
}

func mustCreate(t *testing.T, path string) *Writer {
	t.Helper()
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func appendAll(t *testing.T, w *Writer, recs []Record) {
	t.Helper()
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
}

func sampleRecords() []Record {
	return []Record{
		{Type: 1, Payload: []byte(`{"name":"default"}`)},
		{Type: 2, Payload: []byte(`{"round":1,"facts":[0,3]}`)},
		{Type: 3, Payload: []byte(`{"round":1,"worker":"e0","values":[true,false]}`)},
		{Type: 3, Payload: nil}, // empty payload round-trips too
		{Type: 4, Payload: []byte(`{"round":1,"answers":2}`)},
	}
}

func assertRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Errorf("record %d = {%d %q}, want {%d %q}",
				i, got[i].Type, got[i].Payload, want[i].Type, want[i].Payload)
		}
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := testPath(t)
	w := mustCreate(t, path)
	recs := sampleRecords()
	appendAll(t, w, recs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	assertRecords(t, got, recs)

	// The reopened writer appends where the log left off.
	extra := Record{Type: 5, Payload: []byte("ck")}
	appendAll(t, r, []Record{extra})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	_, got2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	assertRecords(t, got2, append(recs, extra))
}

func TestJournalCreateRefusesExisting(t *testing.T) {
	path := testPath(t)
	w := mustCreate(t, path)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(path); err == nil {
		t.Fatal("Create over an existing journal succeeded; want error")
	}
}

// TestJournalTornTail cuts the file at every byte offset and asserts
// Open always recovers a clean prefix of the original records, never a
// corrupt one, and truncates the file so a further append round-trips.
func TestJournalTornTail(t *testing.T) {
	path := testPath(t)
	w := mustCreate(t, path)
	recs := sampleRecords()
	appendAll(t, w, recs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		p := filepath.Join(t.TempDir(), "torn.journal")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rw, got, err := Open(p)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) > len(recs) {
			t.Fatalf("cut %d: %d records from a %d-record journal", cut, len(got), len(recs))
		}
		assertRecords(t, got, recs[:len(got)])
		// The torn tail is gone: an append after reopen must be readable.
		extra := Record{Type: 9, Payload: []byte{byte(cut)}}
		if err := rw.Append(extra); err != nil {
			t.Fatalf("cut %d: append: %v", cut, err)
		}
		if err := rw.Sync(); err != nil {
			t.Fatalf("cut %d: sync: %v", cut, err)
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
		_, got2, err := Open(p)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		assertRecords(t, got2, append(append([]Record{}, recs[:len(got)]...), extra))
	}
}

// TestJournalCorruptMiddle flips one byte inside an early frame: the
// records after the corruption are discarded with it (the log has no
// resync points by design — everything after a bad frame is suspect).
func TestJournalCorruptMiddle(t *testing.T) {
	path := testPath(t)
	w := mustCreate(t, path)
	recs := sampleRecords()
	appendAll(t, w, recs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full[8+4+2] ^= 0xff // a payload byte of the first frame
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	rw, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	if len(got) != 0 {
		t.Fatalf("got %d records after first-frame corruption, want 0", len(got))
	}
}

func TestJournalNotAJournal(t *testing.T) {
	path := testPath(t)
	if err := os.WriteFile(path, []byte("definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); !errors.Is(err, ErrNotJournal) {
		t.Fatalf("Open = %v, want ErrNotJournal", err)
	}
}

func TestJournalReset(t *testing.T) {
	path := testPath(t)
	w := mustCreate(t, path)
	appendAll(t, w, sampleRecords())
	compacted := []Record{
		{Type: 1, Payload: []byte(`{"name":"default"}`)},
		{Type: 5, Payload: []byte(`{"checkpoint":true}`)},
	}
	if err := w.Reset(compacted); err != nil {
		t.Fatal(err)
	}
	// Appends continue on the compacted log.
	extra := Record{Type: 2, Payload: []byte("next round")}
	appendAll(t, w, []Record{extra})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	assertRecords(t, got, append(append([]Record{}, compacted...), extra))
	assertDir(t, filepath.Dir(path), "s.journal")
}

// assertDir fails unless dir holds exactly the named entries (sorted):
// a leftover temp sibling means a replace leaked its scratch file.
func assertDir(t *testing.T, dir string, want ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if !slices.Equal(got, want) {
		t.Fatalf("dir holds %v, want exactly %v", got, want)
	}
}

func TestReplaceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	// First a create, then a replace over the existing file.
	for _, data := range [][]byte{[]byte("first version"), []byte("second")} {
		if err := ReplaceFile(path, data); err != nil {
			t.Fatal(err)
		}
		assertDir(t, dir, "target")
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("target holds %q, want %q", got, data)
		}
	}
}

// TestReplaceFileFailedRename forces the rename to fail — a non-empty
// directory cannot be replaced by a file — and checks the old target is
// untouched and no temp file is left behind.
func TestReplaceFileFailedRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	inner := filepath.Join(path, "keep")
	if err := os.WriteFile(inner, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ReplaceFile(path, []byte("new")); err == nil {
		t.Fatal("ReplaceFile over a non-empty directory succeeded; want error")
	}
	assertDir(t, dir, "target")
	assertDir(t, path, "keep")
	got, err := os.ReadFile(inner)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old" {
		t.Fatalf("old target content = %q, want %q", got, "old")
	}
}

func TestJournalOversizeRecordRejected(t *testing.T) {
	path := testPath(t)
	w := mustCreate(t, path)
	defer w.Close()
	if err := w.Append(Record{Type: 1, Payload: make([]byte, MaxRecordSize)}); err == nil {
		t.Fatal("oversize append succeeded; want error")
	}
}

func TestJournalClosedWriter(t *testing.T) {
	path := testPath(t)
	w := mustCreate(t, path)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Type: 1}); err == nil {
		t.Fatal("append on closed writer succeeded")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("sync on closed writer succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
