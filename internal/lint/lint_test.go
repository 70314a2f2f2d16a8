package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hcrowd/internal/lint"
	"hcrowd/internal/lint/linttest"
)

// TestCheckFixtures runs every registered check against its golden
// fixture under testdata/src/<name>. Each fixture seeds deliberate
// violations (matched by // want comments), false-positive guards
// (sorted-keys idiom, zero sentinels, read-path closes), and
// suppression directives — so a check that over- or under-reports, or
// reports at the wrong position, fails here.
func TestCheckFixtures(t *testing.T) {
	for _, check := range lint.Checks() {
		check := check
		t.Run(check.Name, func(t *testing.T) {
			linttest.Run(t, check)
		})
	}
}

// TestDirectiveSyntax pins the suppression machinery itself: a
// directive without a reason or with an unknown check name is reported
// and does not suppress, while a well-formed one silences its line.
func TestDirectiveSyntax(t *testing.T) {
	loader := lint.NewLoader()
	pkgs, err := loader.LoadDir("testdata/src/directive", "lintfixture/directive", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	diags := lint.RunCheck(pkgs[0], lint.RandHygiene)

	var directive, randhygiene []lint.Diagnostic
	for _, d := range diags {
		switch d.Check {
		case "directive":
			directive = append(directive, d)
		case "rand-hygiene":
			randhygiene = append(randhygiene, d)
		default:
			t.Errorf("unexpected check %q in %s", d.Check, d)
		}
	}

	wantDirective := []string{
		`suppression of "rand-hygiene" has no reason`,
		"missing check name and reason",
		`unknown check "rand-typo"`,
	}
	if len(directive) != len(wantDirective) {
		t.Fatalf("directive diagnostics = %v, want %d of them", directive, len(wantDirective))
	}
	for i, want := range wantDirective {
		if !strings.Contains(directive[i].Message, want) {
			t.Errorf("directive diagnostic %d = %q, want substring %q", i, directive[i].Message, want)
		}
	}

	// The three malformed directives do not suppress, the valid one
	// does: 3 of the 4 rand.Int() calls survive.
	if len(randhygiene) != 3 {
		t.Errorf("rand-hygiene diagnostics = %d, want 3 (valid directive must suppress exactly one): %v",
			len(randhygiene), randhygiene)
	}
}

// TestDiagnosticPositions asserts findings land on the exact violating
// line, not the enclosing function or file.
func TestDiagnosticPositions(t *testing.T) {
	loader := lint.NewLoader()
	pkgs, err := loader.LoadDir("testdata/src/directive", "lintfixture/directive", true)
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.RunCheck(pkgs[0], lint.RandHygiene)
	for _, d := range diags {
		if d.Check != "rand-hygiene" {
			continue
		}
		if !strings.HasSuffix(d.File, "directive.go") {
			t.Errorf("diagnostic file = %q, want directive.go", d.File)
		}
		if d.Line == 0 || d.Col == 0 {
			t.Errorf("diagnostic %s has zero position", d)
		}
	}
}

func TestCheckByName(t *testing.T) {
	for _, c := range lint.Checks() {
		got, err := lint.CheckByName(c.Name)
		if err != nil || got.Name != c.Name {
			t.Errorf("CheckByName(%q) = %v, %v", c.Name, got.Name, err)
		}
	}
	if _, err := lint.CheckByName("nope"); err == nil {
		t.Error("CheckByName(nope) succeeded, want error")
	}
}

func TestIsDeterministicPackage(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"hcrowd/internal/pipeline", true},
		{"hcrowd/internal/taskselect", true},
		{"hcrowd/internal/crowd", true},
		{"hcrowd/internal/belief", true},
		{"hcrowd/internal/experiments", true},
		{"hcrowd/internal/admit", true},
		{"hcrowd/internal/server", false},
		{"hcrowd/internal/obsv", false},
		{"hcrowd/internal/mathx", false},
		{"hcrowd", false},
	}
	for _, c := range cases {
		if got := lint.IsDeterministicPackage(c.path); got != c.want {
			t.Errorf("IsDeterministicPackage(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

// TestErrCheckLiteWriteCheckpointFile pins the internal/server entry of
// the must-check set, which the golden fixture cannot exercise (fixture
// import paths live under lintfixture/, so the package-suffix match
// never fires there). The call is a bare identifier — the function
// calling its own package's WriteCheckpointFile — which also covers the
// ident-callee branch of the discard scan.
func TestErrCheckLiteWriteCheckpointFile(t *testing.T) {
	dir := t.TempDir()
	src := `package server

import "errors"

type Checkpoint struct{}

func WriteCheckpointFile(path string, ck *Checkpoint) error { return errors.New("x") }

func drain(ck *Checkpoint) {
	WriteCheckpointFile("a", ck)
	_ = WriteCheckpointFile("b", ck)
	defer WriteCheckpointFile("c", ck)
}

func drainChecked(ck *Checkpoint) error {
	return WriteCheckpointFile("d", ck)
}
`
	if err := os.WriteFile(filepath.Join(dir, "server.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := lint.NewLoader()
	pkgs, err := loader.LoadDir(dir, "x/internal/server", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	diags := lint.RunCheck(pkgs[0], lint.ErrCheckLite)
	if len(diags) != 3 {
		t.Fatalf("diagnostics = %v, want 3", diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "WriteCheckpointFile error discarded") {
			t.Errorf("diagnostic %q missing WriteCheckpointFile label", d.Message)
		}
	}
}

// TestErrCheckLiteJournalWriter pins the internal/journal entries of the
// must-check set: a discarded Writer.Append, Sync or Close breaks the
// write-ahead log's durability promise silently, a discarded SyncDir
// re-opens the rename-durability window on every atomic temp+rename
// persistence path, and a discarded ReplaceFile or ReadFileSynced hides
// a file that never became durable. Like the
// WriteCheckpointFile test, the package is synthesized under a path
// whose suffix matches the configured rule.
func TestErrCheckLiteJournalWriter(t *testing.T) {
	dir := t.TempDir()
	src := `package journal

import "errors"

type Record struct {
	Type    byte
	Payload []byte
}

type Writer struct{}

func (w *Writer) Append(r Record) error { return errors.New("x") }
func (w *Writer) Sync() error           { return errors.New("x") }
func (w *Writer) Close() error          { return errors.New("x") }

func SyncDir(path string) error { return errors.New("x") }

func ReplaceFile(path string, data []byte) error { return errors.New("x") }

func ReadFileSynced(path string) ([]byte, error) { return nil, errors.New("x") }

func sloppy(w *Writer) {
	w.Append(Record{})
	_ = w.Sync()
	defer w.Close()
	SyncDir("d")
	_ = ReplaceFile("e", nil)
	ReadFileSynced("f")
}

func careful(w *Writer) error {
	if err := w.Append(Record{}); err != nil {
		return err
	}
	if err := w.Sync(); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := ReplaceFile("e", nil); err != nil {
		return err
	}
	if _, err := ReadFileSynced("f"); err != nil {
		return err
	}
	return SyncDir("d")
}
`
	if err := os.WriteFile(filepath.Join(dir, "journal.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := lint.NewLoader()
	pkgs, err := loader.LoadDir(dir, "x/internal/journal", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	diags := lint.RunCheck(pkgs[0], lint.ErrCheckLite)
	labels := []string{"Writer.Append", "Writer.Sync", "Writer.Close", "SyncDir", "ReplaceFile", "ReadFileSynced"}
	if len(diags) != len(labels) {
		t.Fatalf("diagnostics = %v, want %d", diags, len(labels))
	}
	for i, want := range labels {
		if !strings.Contains(diags[i].Message, want+" error discarded") {
			t.Errorf("diagnostic %d = %q, want %s label", i, diags[i].Message, want)
		}
	}
}
