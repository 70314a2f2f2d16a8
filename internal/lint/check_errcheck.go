package lint

import (
	"go/ast"
	"go/types"
)

// mustCheckCall configures one call whose error result may not be
// discarded. pkg matches the defining package by import-path suffix;
// recv is the named receiver type ("" for package-level functions).
// writePathOnly restricts the rule to receivers that the enclosing
// function provably opened for writing (os.Create/os.CreateTemp/
// os.OpenFile) — closing a read-only file without checking is
// idiomatic, closing a written file without checking loses the final
// flush error and can silently truncate a checkpoint.
type mustCheckCall struct {
	pkg           string
	recv          string
	name          string
	writePathOnly bool
}

// mustCheckCalls is errcheck-lite's configured set: JSON encoding
// (snapshot and checkpoint emitters), file closes and syncs on write
// paths, buffered-writer flushes, checkpoint persistence itself, and
// the service's graceful-shutdown calls — a dropped http.Server
// Shutdown/Close error hides a drain that never completed, and a
// dropped WriteCheckpointFile error loses the one copy of a drained
// session's progress.
var mustCheckCalls = []mustCheckCall{
	{pkg: "encoding/json", recv: "Encoder", name: "Encode"},
	{pkg: "os", recv: "File", name: "Close", writePathOnly: true},
	{pkg: "os", recv: "File", name: "Sync"},
	{pkg: "bufio", recv: "Writer", name: "Flush"},
	{pkg: "internal/pipeline", recv: "Checkpoint", name: "Write"},
	{pkg: "net/http", recv: "Server", name: "Shutdown"},
	{pkg: "net/http", recv: "Server", name: "Close"},
	{pkg: "internal/server", recv: "", name: "WriteCheckpointFile"},
	// The session write-ahead log: a dropped Append or Sync error breaks
	// the journal's core promise (acknowledged work is durable), and a
	// dropped Close can hide the final flush failure on retirement.
	{pkg: "internal/journal", recv: "Writer", name: "Append"},
	{pkg: "internal/journal", recv: "Writer", name: "Sync"},
	{pkg: "internal/journal", recv: "Writer", name: "Close"},
	// Directory fsync closes the rename-durability window on every
	// atomic temp+rename path (journal create/compact, checkpoint files,
	// handed-off journals); dropping its error re-opens that window.
	{pkg: "internal/journal", recv: "", name: "SyncDir"},
	// The durable-replace and fsynced-read primitives every such path
	// goes through: a dropped error is a compaction, checkpoint file or
	// handoff image that silently never became durable.
	{pkg: "internal/journal", recv: "", name: "ReplaceFile"},
	{pkg: "internal/journal", recv: "", name: "ReadFileSynced"},
}

// writeOpeners are the os functions whose *os.File result is (or may
// be) open for writing.
var writeOpeners = map[string]bool{"Create": true, "CreateTemp": true, "OpenFile": true}

// ErrCheckLite flags a configured set of must-check calls whose error
// result is discarded — as a bare statement, behind defer/go, or
// assigned to the blank identifier. Unlike a general errcheck, the set
// is curated to this repo's persistence paths: a dropped
// json.Encoder.Encode or write-path Close turns a crash-safe
// checkpoint into a silently truncated one. Test files are exempt.
var ErrCheckLite = Check{
	Name: "errcheck-lite",
	Doc: "must-check calls (json Encode, write-path Close/Sync, Flush, " +
		"Checkpoint.Write, http.Server Shutdown/Close, WriteCheckpointFile, " +
		"journal.Writer Append/Sync/Close, journal.SyncDir/ReplaceFile/" +
		"ReadFileSynced) may not discard their error",
	Run: runErrCheckLite,
}

func runErrCheckLite(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		// funcStack tracks enclosing function bodies for the write-path
		// provenance scan.
		var funcStack []*ast.BlockStmt
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return false
				}
				funcStack = append(funcStack, n.Body)
				ast.Inspect(n.Body, walk)
				funcStack = funcStack[:len(funcStack)-1]
				return false
			case *ast.FuncLit:
				funcStack = append(funcStack, n.Body)
				ast.Inspect(n.Body, walk)
				funcStack = funcStack[:len(funcStack)-1]
				return false
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDiscarded(pass, call, funcStack)
				}
			case *ast.DeferStmt:
				checkDiscarded(pass, n.Call, funcStack)
			case *ast.GoStmt:
				checkDiscarded(pass, n.Call, funcStack)
			case *ast.AssignStmt:
				// `_ = f.Close()`: a deliberate-looking discard is still a
				// discard; must-check sites need handling or a suppression.
				if len(n.Lhs) == 1 && len(n.Rhs) == 1 && isBlank(n.Lhs[0]) {
					if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
						checkDiscarded(pass, call, funcStack)
					}
				}
			}
			return true
		}
		ast.Inspect(f, walk)
	}
}

func checkDiscarded(pass *Pass, call *ast.CallExpr, funcStack []*ast.BlockStmt) {
	// The callee is either a selector (method or imported function) or a
	// bare identifier (a package-level function called from its own
	// package — how internal/server calls WriteCheckpointFile).
	var callee *ast.Ident
	var sel *ast.SelectorExpr
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		sel = f
		callee = f.Sel
	case *ast.Ident:
		callee = f
	default:
		return
	}
	fn, ok := pass.Pkg.Info.Uses[callee].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	recvName := ""
	if r := sig.Recv(); r != nil {
		recvName = namedTypeName(r.Type())
	}
	for _, mc := range mustCheckCalls {
		if fn.Name() != mc.name || mc.recv != recvName || !pathIs(fn.Pkg().Path(), mc.pkg) {
			continue
		}
		if mc.writePathOnly && (sel == nil || !receiverWriteOpened(pass, sel.X, funcStack)) {
			return
		}
		label := mc.name
		if recvName != "" {
			label = recvName + "." + mc.name
		}
		pass.Reportf(call.Pos(),
			"%s error discarded; this is a must-check call on a persistence path", label)
		return
	}
}

// namedTypeName unwraps pointers and returns the receiver's named type.
func namedTypeName(t types.Type) string {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// receiverWriteOpened reports whether recv is an identifier that some
// enclosing function assigns from os.Create/os.CreateTemp/os.OpenFile.
// Unknown provenance (parameters, fields, chained calls) counts as not
// write-opened: the check prefers silence to noise on files it cannot
// trace.
func receiverWriteOpened(pass *Pass, recv ast.Expr, funcStack []*ast.BlockStmt) bool {
	id, ok := recv.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Pkg.Info.Uses[id]
	if obj == nil {
		return false
	}
	for _, body := range funcStack {
		found := false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || found {
				return !found
			}
			assignsObj := false
			for _, lhs := range as.Lhs {
				if lid, ok := lhs.(*ast.Ident); ok {
					if pass.Pkg.Info.Defs[lid] == obj || pass.Pkg.Info.Uses[lid] == obj {
						assignsObj = true
					}
				}
			}
			if !assignsObj {
				return true
			}
			for _, rhs := range as.Rhs {
				ast.Inspect(rhs, func(r ast.Node) bool {
					c, ok := r.(*ast.CallExpr)
					if !ok {
						return true
					}
					s, ok := c.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					f, ok := pass.Pkg.Info.Uses[s.Sel].(*types.Func)
					if ok && f.Pkg() != nil && f.Pkg().Path() == "os" && writeOpeners[f.Name()] {
						found = true
					}
					return !found
				})
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
