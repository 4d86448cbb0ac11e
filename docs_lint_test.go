package rtcshare_test

// The documentation gates of the repository, run by CI as a named step:
// every Go package must carry a package-level doc comment, every
// exported identifier of the public surface (the root rtcshare package
// and internal/server) must be documented, the root package may export
// only what its programs and front-door docs name, the local links of the
// front-door markdown files must resolve, every `rpqbench -experiment`
// they quote must exist, nothing they say may name a retired
// configuration outside DESIGN §6's evidence paragraphs, DESIGN may
// cite no ROADMAP item by its number, and DESIGN may not grow. A missing
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
	"slices"
	"strconv"
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

// facadeAllowlist names the exports of rtcshare.go that no program
// under examples/ or cmd/, README.md or the package doc names. Each is
// kept because a caller needs it to call, or check the result of, an
// API that is named.
var facadeAllowlist = map[string]string{
	"Expr":            "parameter of Engine.EvaluateRel, Explain and OpenStream",
	"ParseQuery":      "the constructor of an Expr",
	"GraphBuilder":    "result of NewGraphBuilder",
	"Pair":            "element of Relation.Page",
	"StreamOptions":   "parameter of Engine.OpenStream",
	"ResultStream":    "result of Engine.OpenStream",
	"ErrStreamClosed": "returned by ResultStream.Next after Close",
	"Server":          "result of NewServer",
	"Store":           "result of OpenStore, parameter of OpenEngine",
	"RecoveryInfo":    "result of OpenEngine",
	"ErrNoSnapshot":   "returned by Store.LoadSnapshot on an empty store",
	"ErrDegraded":     "returned by PersistentEngine.ApplyUpdates in degraded mode",
	"QueryPanicError": "error of Engine.EvaluateRelTimedCtx after a recovered panic",
}

// TestDocFacadeSurface keeps the public package to what its callers
// use: every name rtcshare.go exports must be used by a program under
// examples/ or cmd/, named by README.md (as rtcshare.Name or in a code
// span) or by the package doc, or carry an allowlist reason.
func TestDocFacadeSurface(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "rtcshare.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				exported = append(exported, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() {
						exported = append(exported, sp.Name.Name)
					}
				case *ast.ValueSpec:
					for _, name := range sp.Names {
						if name.IsExported() {
							exported = append(exported, name.Name)
						}
					}
				}
			}
		}
	}

	used := programUses(t, fset)
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := f.Doc.Text()
	for _, name := range exported {
		inReadme := regexp.MustCompile("(rtcshare\\.|`)" + name + `\b`).Match(readme)
		inDoc := regexp.MustCompile(`\b` + name + `\b`).MatchString(doc)
		_, allowed := facadeAllowlist[name]
		if !used[name] && !inReadme && !inDoc && !allowed {
			t.Errorf("rtcshare.go exports %s, which no program under examples/ or cmd/, README.md or the package doc names; delete it or add it to facadeAllowlist with a reason", name)
		}
	}
	for name := range facadeAllowlist {
		if !slices.Contains(exported, name) {
			t.Errorf("facadeAllowlist names %s, which rtcshare.go does not export", name)
		}
	}
}

// programUses returns the rtcshare identifiers the non-test Go files
// under examples/ and cmd/ select.
func programUses(t *testing.T, fset *token.FileSet) map[string]bool {
	t.Helper()
	used := map[string]bool{}
	for _, root := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			local := ""
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "rtcshare" {
					local = "rtcshare"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			if local == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
						used[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return used
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
// per-experiment baseline files, the map-set layout, the shard flag, the
// scatter seam, the warm restore of cached structures from a snapshot,
// the server's coalescing window and fast lane, the cost-based planner,
// closure-algorithm, DFA and cache-off knobs, incremental closure
// maintenance with its off switch, the joins of their own that ASK and
// the pair-level Post step had before every consumer drove one
// per-source producer, the eager closure build and the closure reads
// of the row kernel that the product-built RTC retired, the
// parallel-batch family with its experiment and flag, the engine's
// per-request forks, rpqd's strategy switch, the store's fault wrapper
// with its public injection surface, the DNF bound option, engines
// sharing one cache with the constructors, cache resets and
// parse-and-explain shorthands that went with them, the RTC assembled
// from caller-built parts, the hand-rolled run stores that
// pairs.WordRuns replaced, and the cache's second region type, key
// prefixes and per-strategy structure lookups that one cacheRegion and
// one shared-structure lookup replaced, and the per-source offsets a
// row-shared relation kept beside its starts before run handles
// replaced both, and the product arc's eager reverse columns, which a
// search now reads on its first bottom-up level. (Spelled in pieces so that a
// grep for the retired identifiers over the Go sources stays empty.)
var retiredNames = []*regexp.Regexp{
	regexp.MustCompile(`BENCH_[A-Za-z*_]+\.json`),
	regexp.MustCompile("Layout" + "MapSet"),
	regexp.MustCompile(`(^|[^A-Za-z-])-shards\b`),
	regexp.MustCompile("Scatter" + "Hook"),
	regexp.MustCompile("Restore" + "Engine"),
	regexp.MustCompile("Snapshot" + "State"),
	regexp.MustCompile("restored" + "_rtcs"),
	regexp.MustCompile(`(^|[^A-Za-z-])-no-` + `coalesce\b`),
	regexp.MustCompile(`(^|[^A-Za-z-])-win` + `dow\b`),
	regexp.MustCompile("DisableFast" + "Lane"),
	regexp.MustCompile("FastLane" + "Slots"),
	regexp.MustCompile("CheapCost" + "Bound"),
	regexp.MustCompile("PlannerCost" + "Based"),
	regexp.MustCompile(`TC` + `Algo\b`),
	regexp.MustCompile("Use" + "DFA"),
	regexp.MustCompile("Disable" + "Cache"),
	regexp.MustCompile("Bitset" + "Closure"),
	regexp.MustCompile(`(^|[^A-Za-z-])-plan` + `ner\b`),
	regexp.MustCompile(`(^|[^A-Za-z-])-d` + `fa\b`),
	regexp.MustCompile("Disable" + "Incremental"),
	regexp.MustCompile("Dyn" + "Closure"),
	regexp.MustCompile("ask" + "Forward"),
	regexp.MustCompile("join" + "Post"),
	regexp.MustCompile("Any" + "From"),
	regexp.MustCompile("Compute" + "Check"),
	regexp.MustCompile("Reachable" + "From"),
	regexp.MustCompile("EvaluateQueries" + "Parallel"),
	regexp.MustCompile("EvaluateAll" + "Parallel"),
	regexp.MustCompile("Evaluate" + "Parallel"),
	regexp.MustCompile(`fig` + `16\b`),
	regexp.MustCompile(`(^|[^A-Za-z-])-work` + `ers\b`),
	regexp.MustCompile(`\.Fo` + `rk\(`),
	regexp.MustCompile(`rpqd\b.*[^A-Za-z-]-str` + `ategy\b`),
	regexp.MustCompile(`New` + `Faulty\b`),
	regexp.MustCompile("NewFault" + "yStore"),
	regexp.MustCompile("OpenStore" + "Faulty"),
	regexp.MustCompile("NewFault" + "Injector"),
	regexp.MustCompile("MaxDNF" + "Clauses"),
	regexp.MustCompile("NewWith" + "Cache"),
	regexp.MustCompile("NewEngineWith" + "Cache"),
	regexp.MustCompile("NewShared" + "Cache"),
	regexp.MustCompile("From" + "Parts"),
	regexp.MustCompile("Clear" + "Caches"),
	regexp.MustCompile("Reset" + "Stats"),
	regexp.MustCompile(`Explain` + `Query\b`),
	regexp.MustCompile("ExplainAnalyze" + "Query"),
	regexp.MustCompile("merge" + "CSR"),
	regexp.MustCompile("acquire" + "Builder"),
	regexp.MustCompile("builder" + "Pool"),
	regexp.MustCompile("kernel" + "Join"),
	regexp.MustCompile(`\beval` + `BatchUnit`),
	regexp.MustCompile("resolve" + "Unit"),
	regexp.MustCompile("Drain" + "Append"),
	regexp.MustCompile(`rowKernel\.` + `seal\b`),
	regexp.MustCompile(`\bword` + `Run\b`),
	regexp.MustCompile(`\bappend` + `Block\b`),
	regexp.MustCompile(`\brow` + `Span\b`),
	regexp.MustCompile(`\bstored` + `Run\b`),
	regexp.MustCompile("getOrCompute" + "Relation"),
	regexp.MustCompile("lookup" + "Relation"),
	regexp.MustCompile(`(^|[^-A-Za-z])fli` + `ght\(`),
	regexp.MustCompile(`\brel` + `Shards?\b`),
	regexp.MustCompile("count" + "Entries"),
	regexp.MustCompile("dropEntry" + "Locked"),
	regexp.MustCompile(`\bregion` + `(Structure|Relation)\b`),
	regexp.MustCompile(`\bns` + `(RTC|Full)\b`),
	regexp.MustCompile(`\b(rtc|full)` + `Value\b`),
	regexp.MustCompile(`\bget` + `RTC\b`),
	regexp.MustCompile("getFull" + "Closure"),
	regexp.MustCompile("evaluateRel" + "Cached"),
	regexp.MustCompile("src" + "Offsets"),
	regexp.MustCompile(`Arc\.` + `Rev\b`),
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

// roadmapItemNumber matches a citation of a ROADMAP item by number,
// also across a line break: ROADMAP renumbers its items at every
// re-anchor, so such a citation goes stale.
var roadmapItemNumber = regexp.MustCompile(`ROADMAP\s+(item\s+)?\d|\bitem\s+\d`)

// TestDocNoRoadmapItemNumbers checks that DESIGN.md, §6 included, names
// an open problem in words rather than by its ROADMAP item number.
func TestDocNoRoadmapItemNumbers(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range roadmapItemNumber.FindAllIndex(data, -1) {
		line := 1 + strings.Count(string(data[:m[0]]), "\n")
		t.Errorf("DESIGN.md:%d cites %q; name the open problem in words", line, data[m[0]:m[1]])
	}
}

// designMaxLines is DESIGN.md's length in lines. DESIGN describes the
// system as it is, so a change that adds to it replaces or removes as
// much; a change that shortens it lowers the bound.
const designMaxLines = 2605

// TestDocDesignLength checks that DESIGN.md is at most designMaxLines
// long.
func TestDocDesignLength(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n > designMaxLines {
		t.Errorf("DESIGN.md has %d lines, more than %d: replace or remove as much as the change adds", n, designMaxLines)
	}
}

// ciRunFlag matches the test selectors of the CI workflow, -run '<regexp>'
// and -fuzz=<name>; testFunc matches a test, benchmark or fuzz function.
var (
	ciRunFlag = regexp.MustCompile(`\s-(run|fuzz)(?:=| ')([A-Za-z0-9_|]+)`)
	testFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// TestDocCIRunNamesExist checks that every name a CI step selects with
// -run or -fuzz is a prefix of a test, benchmark or fuzz function of the
// repository, so a renamed or deleted test cannot leave a named CI step
// silently running nothing.
func TestDocCIRunNamesExist(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var funcs []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		funcs = append(funcs, testFunc.FindAllString(string(src), -1)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	all := strings.Join(funcs, "\n")
	for _, m := range ciRunFlag.FindAllStringSubmatch(string(data), -1) {
		for _, name := range strings.Split(m[2], "|") {
			if name == "NONE" {
				continue
			}
			if !strings.Contains(all, "func "+name) {
				t.Errorf("ci.yml selects -%s %q, which names no test in the repository", m[1], name)
			}
		}
	}
}
