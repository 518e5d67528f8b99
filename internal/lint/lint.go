// Package lint is nebula-lint's engine: a stdlib-only static analyzer that
// enforces the project invariants the Go compiler cannot check —
// deterministic aggregation order, leak-free goroutine fan-out, error-checked
// protocol I/O, lock-safe struct handling, config-seeded randomness, and the
// coordinator/worker/reduce contract of the parallel round executor.
//
// The engine is whole-program and fully type-checked: Load (program.go)
// discovers the enclosing module, parses every package under the requested
// roots, pulls module-local dependencies in on demand, and type-checks the
// lot in dependency order through a real file-system importer (stdlib
// resolves from GOROOT sources). Checks therefore see cross-package types —
// what type a closure captures, which method a call resolves to, whether a
// callee three packages away can block — and can walk into callee bodies via
// the program's declaration index.
//
// Diagnostics can be suppressed with a trailing or preceding
// `//nolint:check -- reason` comment; a nolint directive without a
// justification is itself a diagnostic. Known findings can be parked in a
// baseline file (baseline.go) while they are burned down.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the canonical `file:line: [check] message` form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Check, d.Message)
}

// File is one parsed source file plus the package context checks need.
type File struct {
	Path string
	Fset *token.FileSet
	AST  *ast.File
	Pkg  *Package
}

// Package groups the files of one directory (split by package clause) with
// the type information produced by the whole-program load.
type Package struct {
	Dir  string
	Name string
	// PkgPath is the import path within the enclosing module.
	PkgPath string
	Files   []*File
	// Info holds the type-checker's results. Whole-program loading resolves
	// cross-package types for real; entries can still be missing for code
	// inside import cycles or next to parse errors, so checks must tolerate
	// nil objects and types.
	Info *types.Info
	// Types is the checked package object (receiver of Scope lookups).
	Types *types.Package
	// LoadErrs are loader diagnostics (parse failures, import cycles)
	// reported under the "loaderror" pseudo-check.
	LoadErrs []Diagnostic
	// Prog is the whole program this package was loaded into.
	Prog *Program

	state pkgState
}

// TypeOf returns the type of e, or nil when unresolved.
func (f *File) TypeOf(e ast.Expr) types.Type {
	if f.Pkg == nil || f.Pkg.Info == nil {
		return nil
	}
	return f.Pkg.Info.TypeOf(e)
}

// ObjectOf resolves an identifier to the object it uses or defines, or nil.
func (f *File) ObjectOf(id *ast.Ident) types.Object {
	if f.Pkg == nil || f.Pkg.Info == nil {
		return nil
	}
	if obj := f.Pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return f.Pkg.Info.Defs[id]
}

// Analyzer is one project-specific check.
type Analyzer interface {
	// Name is the short id used in diagnostics and //nolint directives.
	Name() string
	// Doc is a one-line description of the invariant the check protects.
	Doc() string
	// DefaultPaths restricts where the check applies (substring match on the
	// slash-separated file path). Empty means everywhere.
	DefaultPaths() []string
	// Check inspects one file and returns its findings.
	Check(f *File) []Diagnostic
}

// All returns the full set of nebula-lint analyzers in stable order.
func All() []Analyzer {
	return []Analyzer{
		MapOrder{},
		GoLeak{},
		ErrDrop{},
		MutexCopy{},
		SeedRand{},
		HotAlloc{},
		RawClock{},
		RNGEscape{},
		LockedCall{},
		ArtifactOrder{},
		SpanLeak{},
	}
}

// PseudoChecks are diagnostic sources that are not Analyzers: the loader's
// error channel and the nolint-justification enforcement. They participate in
// -list, -checks, and the fixture self-check like real checks.
func PseudoChecks() []struct{ Name, Doc string } {
	return []struct{ Name, Doc string }{
		{LoadErrorCheck, "package failed to load cleanly: parse error or module-local import cycle"},
		{"nolint", "//nolint directive without a `-- reason` justification"},
	}
}

// Runner applies analyzers to packages and filters suppressions.
type Runner struct {
	Analyzers []Analyzer
	// Unscoped ignores each analyzer's DefaultPaths (used by tests and when
	// linting fixture trees that live outside the scoped directories).
	Unscoped bool
}

// Run lints every file of every package and returns diagnostics sorted by
// file, line, and check. Unjustified //nolint directives are reported under
// the pseudo-check "nolint"; loader problems under "loaderror".
func (r *Runner) Run(pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		out = append(out, pkg.LoadErrs...)
		for _, f := range pkg.Files {
			sup := collectNolint(f)
			out = append(out, sup.unjustified...)
			for _, a := range r.Analyzers {
				if !r.Unscoped && !pathInScope(f.Path, a.DefaultPaths()) {
					continue
				}
				for _, d := range a.Check(f) {
					if sup.suppresses(d.Pos.Line, a.Name()) {
						continue
					}
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		if out[i].Check != out[j].Check {
			return out[i].Check < out[j].Check
		}
		return out[i].Message < out[j].Message
	})
	return out
}

func pathInScope(path string, scopes []string) bool {
	if len(scopes) == 0 {
		return true
	}
	// Resolve relative paths (e.g. "../edgenet/server.go" when linting from
	// a subdirectory) so scope matching sees the full repository path.
	if abs, err := filepath.Abs(path); err == nil {
		path = abs
	}
	slashed := filepath.ToSlash(path)
	for _, s := range scopes {
		if strings.Contains(slashed, s) {
			return true
		}
	}
	return false
}

// nolintSet records suppression directives per line.
type nolintSet struct {
	// byLine maps a source line to the set of suppressed check names; an
	// empty set means all checks are suppressed on that line.
	byLine      map[int]map[string]bool
	unjustified []Diagnostic
}

// suppresses reports whether check is silenced at line (directives apply to
// their own line and the line directly below, covering both trailing and
// preceding comment placement).
func (s *nolintSet) suppresses(line int, check string) bool {
	for _, l := range [2]int{line, line - 1} {
		checks, ok := s.byLine[l]
		if !ok {
			continue
		}
		if len(checks) == 0 || checks[check] {
			return true
		}
	}
	return false
}

// collectNolint scans f's comments for //nolint directives. The accepted
// grammar is `//nolint` or `//nolint:check1,check2`, optionally followed by
// `-- justification`; a directive without a justification is reported so
// suppressions stay auditable.
func collectNolint(f *File) *nolintSet {
	s := &nolintSet{byLine: map[int]map[string]bool{}}
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//nolint")
			if !ok {
				continue
			}
			line := f.Fset.Position(c.Pos()).Line
			spec, reason, hasReason := strings.Cut(text, "--")
			checks := map[string]bool{}
			if rest, ok := strings.CutPrefix(strings.TrimSpace(spec), ":"); ok {
				for _, name := range strings.Split(rest, ",") {
					if name = strings.TrimSpace(name); name != "" {
						checks[name] = true
					}
				}
			}
			s.byLine[line] = checks
			if !hasReason || strings.TrimSpace(reason) == "" {
				s.unjustified = append(s.unjustified, Diagnostic{
					Pos:     f.Fset.Position(c.Pos()),
					Check:   "nolint",
					Message: "nolint directive needs a justification: //nolint:check -- reason",
				})
			}
		}
	}
	return s
}
