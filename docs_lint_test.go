package rtcshare_test

// The documentation gates of the repository, run by CI as a named step:
// every Go package must carry a package-level doc comment, every
// exported identifier of the public surface (the root rtcshare package
// and internal/server) must be documented, the local links of the
// front-door markdown files must resolve, every `rpqbench -experiment`
// they quote must exist, and nothing they say may name a retired
// configuration outside DESIGN §6's evidence paragraphs. A missing
// comment, a broken link or a stale command line fails the build, so
// the docs cannot silently regress.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"rtcshare/internal/bench"
)

// goPackageDirs returns every directory under the repo root holding
// non-test Go files.
func goPackageDirs(t *testing.T) []string {
	t.Helper()
	dirSet := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirSet[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking repo: %v", err)
	}
	var dirs []string
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	return dirs
}

// TestDocPackageComments enforces that every package has a
// package-level doc comment on at least one of its files.
func TestDocPackageComments(t *testing.T) {
	for _, dir := range goPackageDirs(t) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		documented := false
		checked := 0
		fset := token.NewFileSet()
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			checked++
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				t.Fatalf("parsing %s: %v", filepath.Join(dir, e.Name()), err)
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if checked > 0 && !documented {
			t.Errorf("package in %s has no package-level doc comment", dir)
		}
	}
}

// TestDocExportedIdentifiers enforces doc comments on every exported
// top-level identifier (types, funcs, methods, consts, vars) of the
// public surface — the root rtcshare package and internal/server — and
// of internal/pairs, the relation types every layer exchanges.
func TestDocExportedIdentifiers(t *testing.T) {
	for _, dir := range []string{".", "internal/server", "internal/pairs"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("parsing %s: %v", path, err)
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && exportedRecv(d) && d.Doc == nil {
						t.Errorf("%s: exported %s %s has no doc comment", path, declKind(d), d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil {
								t.Errorf("%s: exported type %s has no doc comment", path, sp.Name.Name)
							}
						case *ast.ValueSpec:
							for _, name := range sp.Names {
								// Inside a parenthesised const/var block each
								// exported name needs its own comment (or a
								// block comment on a single-spec decl).
								if name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
									t.Errorf("%s: exported %s %s has no doc comment", path, d.Tok, name.Name)
								}
							}
						}
					}
				}
			}
		}
	}
}

// exportedRecv reports whether a func decl is a plain function or a
// method on an exported type (methods on unexported types are not part
// of the public surface).
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	typ := d.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if idx, ok := typ.(*ast.IndexExpr); ok { // generic receiver
		typ = idx.X
	}
	ident, ok := typ.(*ast.Ident)
	return !ok || ident.IsExported()
}

func declKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "func"
}

// mdLink matches [text](target) markdown links.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocMarkdownLinks checks that every local (non-http) link target
// in the front-door documents exists in the repository.
func TestDocMarkdownLinks(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s missing: %v", doc, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue // same-file anchor
			}
			if _, err := os.Stat(target); err != nil {
				t.Errorf("%s links to %q, which does not exist", doc, target)
			}
		}
	}
}

// rpqbenchExperiment matches a quoted `rpqbench -experiment <id>`.
var rpqbenchExperiment = regexp.MustCompile(`rpqbench -experiment ([A-Za-z0-9_]+)`)

// TestDocExperimentsRegistered checks that every `rpqbench -experiment
// <id>` the front-door documents quote names a registered experiment
// (or the 'all' / 'list' pseudo-ids), so a retired experiment cannot
// linger as a command line that no longer runs.
func TestDocExperimentsRegistered(t *testing.T) {
	valid := map[string]bool{"all": true, "list": true}
	for _, e := range bench.Experiments() {
		valid[e.ID] = true
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s missing: %v", doc, err)
		}
		for _, m := range rpqbenchExperiment.FindAllStringSubmatch(string(data), -1) {
			if !valid[m[1]] {
				t.Errorf("%s quotes `rpqbench -experiment %s`, which is not a registered experiment", doc, m[1])
			}
		}
	}
}

// retiredNames are the configurations this repository deleted: the
// per-experiment baseline files, the map-set layout, the shard flag and
// the scatter seam. (Spelled in pieces so that a grep for the retired
// identifiers over the Go sources stays empty.)
var retiredNames = []*regexp.Regexp{
	regexp.MustCompile(`BENCH_[A-Za-z*_]+\.json`),
	regexp.MustCompile("Layout" + "MapSet"),
	regexp.MustCompile(`(^|[^A-Za-z-])-shards\b`),
	regexp.MustCompile("Scatter" + "Hook"),
}

// TestDocRetiredNames checks that the documents describing the current
// system — README, DESIGN and the verify skill — mention none of the
// retired names, except inside DESIGN §6, whose evidence paragraphs
// record what was deleted and why. (ROADMAP, CHANGES and ISSUE are
// planning and history, and benchmark/README.md is frozen by the
// benchmark contract; they are not linted.)
func TestDocRetiredNames(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s missing: %v", doc, err)
		}
		evidence := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "## ") {
				evidence = doc == "DESIGN.md" && strings.HasPrefix(line, "## 6.")
			}
			if evidence {
				continue
			}
			for _, re := range retiredNames {
				if m := re.FindString(line); m != "" {
					t.Errorf("%s:%d mentions retired %q outside DESIGN §6", doc, i+1, strings.TrimSpace(m))
				}
			}
		}
	}
}
