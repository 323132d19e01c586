package photoloop_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"photoloop"
	"photoloop/internal/md"
)

// docLintPackages are the directories whose exported identifiers must all
// carry doc comments: the public facade plus the packages the scenario
// subsystem added (presets, the workload zoo, the sweep/study engine).
// CI runs this lint as part of the docs job.
var docLintPackages = []string{
	".", // the photoloop facade
	"internal/presets",
	"internal/workload",
	"internal/sweep",
	"internal/explore",
	"internal/md",
	"internal/store",
	"internal/jobs",
	"internal/fidelity",
}

// TestFacadeDocComments enforces the documentation contract: every
// exported identifier declared in the linted packages must carry a doc
// comment (on its own declaration, its spec, or — for grouped constants —
// the group).
func TestFacadeDocComments(t *testing.T) {
	for _, dir := range docLintPackages {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			lintFileDocComments(t, filepath.Join(dir, name))
		}
	}
}

func lintFileDocComments(t *testing.T, path string) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	report := func(name string, pos token.Pos) {
		t.Errorf("%s: exported identifier %q has no doc comment", fset.Position(pos), name)
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			// Methods inherit discoverability from their receiver type's
			// godoc page but still must be documented.
			if d.Name.IsExported() && d.Doc == nil {
				report(d.Name.Name, d.Pos())
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch sp := s.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() && sp.Doc == nil && d.Doc == nil {
						report(sp.Name.Name, sp.Pos())
					}
				case *ast.ValueSpec:
					// Grouped constants (e.g. the Dim values) may share
					// the group's doc; line comments also count.
					documented := sp.Doc != nil || sp.Comment != nil || d.Doc != nil
					for _, name := range sp.Names {
						if name.IsExported() && !documented {
							report(name.Name, name.Pos())
						}
					}
				}
			}
		}
	}
}

// repoMarkdownFiles returns the markdown documents the docs checks cover.
func repoMarkdownFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md"}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	return append(files, docs...)
}

// TestMarkdownLinks checks that intra-repo links in README.md and
// docs/*.md resolve to existing files — no dangling references. External
// (http/https/mailto) and pure-anchor links are skipped.
func TestMarkdownLinks(t *testing.T) {
	linkRe := regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	for _, path := range repoMarkdownFiles(t) {
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(buf), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: dangling link %q (%v)", path, m[1], err)
			}
		}
	}
}

// docRefPackages maps the package qualifiers the checked documents may
// use to the directories that declare them.
var docRefPackages = map[string]string{
	"photoloop":  ".",
	"workload":   "internal/workload",
	"components": "internal/components",
	"arch":       "internal/arch",
	"mapping":    "internal/mapping",
	"model":      "internal/model",
	"mapper":     "internal/mapper",
	"albireo":    "internal/albireo",
	"baseline":   "internal/baseline",
	"spec":       "internal/spec",
	"sweep":      "internal/sweep",
	"presets":    "internal/presets",
	"explore":    "internal/explore",
	"md":         "internal/md",
	"exp":        "internal/exp",
	"refsim":     "internal/refsim",
	"store":      "internal/store",
	"jobs":       "internal/jobs",
	"shard":      "internal/shard",
	"retry":      "internal/retry",
	"fidelity":   "internal/fidelity",
}

// docPackage is what the doc lint knows of one package: its exported
// top-level identifiers and each type's exported fields and methods.
type docPackage struct {
	names   map[string]bool
	members map[string]map[string]bool
}

// recvTypeName returns the type a method receiver (T, *T, T[K]) names.
func recvTypeName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// exportedNames parses every non-test file of a package directory and
// returns its exported top-level identifiers (types, funcs, consts,
// vars) and its types' exported fields and methods.
func exportedNames(t *testing.T, dir string) *docPackage {
	t.Helper()
	p := &docPackage{names: map[string]bool{}, members: map[string]map[string]bool{}}
	addMember := func(typ string, n *ast.Ident) {
		if !n.IsExported() {
			return
		}
		if p.members[typ] == nil {
			p.members[typ] = map[string]bool{}
		}
		p.members[typ][n.Name] = true
	}
	addFields := func(typ string, fields *ast.FieldList) {
		for _, f := range fields.List {
			for _, n := range f.Names {
				addMember(typ, n)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					if d.Name.IsExported() {
						p.names[d.Name.Name] = true
					}
				} else {
					addMember(recvTypeName(d.Recv.List[0].Type), d.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch sp := s.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							p.names[sp.Name.Name] = true
						}
						switch tt := sp.Type.(type) {
						case *ast.StructType:
							addFields(sp.Name.Name, tt.Fields)
						case *ast.InterfaceType:
							addFields(sp.Name.Name, tt.Methods)
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() {
								p.names[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return p
}

// TestModelingDocReferences guards the reference-heavy documents
// (docs/MODELING.md, EXPLORATION.md, SERVICE.md, ARCHITECTURE.md,
// PERFORMANCE.md and README.md) against rot: every backticked
// `pkg.Symbol` reference whose qualifier names one of this module's
// packages must resolve to an exported identifier that still compiles
// there, and a `pkg.Type.Member` reference must also resolve to an
// exported field or method declared on that type (a member promoted
// from an embedded type does not resolve).
func TestModelingDocReferences(t *testing.T) {
	refRe := regexp.MustCompile("`([a-z][a-zA-Z0-9]*)\\.([A-Z][A-Za-z0-9]*)(?:\\.([A-Z][A-Za-z0-9]*))?")
	pkgs := map[string]*docPackage{}
	for doc, minRefs := range map[string]int{
		"docs/MODELING.md":     30,
		"docs/EXPLORATION.md":  8,
		"docs/SERVICE.md":      8,
		"docs/ARCHITECTURE.md": 20,
		"docs/PERFORMANCE.md":  4,
		"README.md":            5,
	} {
		buf, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, m := range refRe.FindAllStringSubmatch(string(buf), -1) {
			pkg, sym, member := m[1], m[2], m[3]
			dir, ok := docRefPackages[pkg]
			if !ok {
				continue
			}
			if pkgs[pkg] == nil {
				pkgs[pkg] = exportedNames(t, dir)
			}
			p := pkgs[pkg]
			checked++
			if !p.names[sym] {
				t.Errorf("%s references %s.%s, which %s does not export", doc, pkg, sym, dir)
			} else if member != "" && !p.members[sym][member] {
				t.Errorf("%s references %s.%s.%s, which is no field or method of %s.%s", doc, pkg, sym, member, pkg, sym)
			}
		}
		if checked < minRefs {
			t.Errorf("%s: only %d package references found — the extraction regex may have rotted", doc, checked)
		}
	}
}

// generatedWorkloadTable renders the README's workload table from the
// zoo registry — the single source of truth. Rendering goes through the
// shared md helper so a `|` in a description cannot break the table.
func generatedWorkloadTable() string {
	var rows [][]string
	for _, e := range photoloop.WorkloadZoo() {
		n := e.Build(1)
		rows = append(rows, []string{
			e.Name, e.Family, fmt.Sprint(len(n.Layers)),
			fmt.Sprintf("%.2f", float64(n.MACs())/1e9),
			fmt.Sprintf("%.2f", float64(n.WeightElems())/1e6),
			e.Description,
		})
	}
	var b strings.Builder
	if err := md.Table(&b, []string{"network", "family", "layers", "GMACs", "params (M)", "description"}, "llrrrl", rows); err != nil {
		panic(err)
	}
	return b.String()
}

// generatedPresetTable renders the README's preset table from the
// preset library, through the same escaping md helper.
func generatedPresetTable() string {
	var rows [][]string
	for _, p := range photoloop.Presets() {
		a, err := p.Build()
		if err != nil {
			panic(err)
		}
		area, err := a.Area()
		if err != nil {
			panic(err)
		}
		rows = append(rows, []string{
			p.Name, p.Kind(), fmt.Sprint(a.PeakMACsPerCycle()),
			fmt.Sprintf("%.2f", area/1e6), p.Description,
		})
	}
	var b strings.Builder
	if err := md.Table(&b, []string{"preset", "kind", "peak MACs/cycle", "area (mm²)", "description"}, "llrrl", rows); err != nil {
		panic(err)
	}
	return b.String()
}

// TestREADMEGeneratedTables keeps the README's workload and preset
// tables generated from the live registries: the committed text between
// the marker comments must match what the code produces. Run with
// UPDATE_DOCS=1 to rewrite the README in place after adding a zoo entry
// or preset.
func TestREADMEGeneratedTables(t *testing.T) {
	blocks := map[string]string{
		"workloads": generatedWorkloadTable(),
		"presets":   generatedPresetTable(),
	}
	buf, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(buf)
	update := os.Getenv("UPDATE_DOCS") != ""
	for name, want := range blocks {
		begin := fmt.Sprintf("<!-- generated:%s:begin -->\n", name)
		end := fmt.Sprintf("<!-- generated:%s:end -->", name)
		bi := strings.Index(text, begin)
		ei := strings.Index(text, end)
		if bi < 0 || ei < 0 || ei < bi {
			t.Errorf("README.md: markers for generated block %q missing or out of order", name)
			continue
		}
		got := text[bi+len(begin) : ei]
		if got == want {
			continue
		}
		if update {
			text = text[:bi+len(begin)] + want + text[ei:]
			continue
		}
		t.Errorf("README.md generated %s table is stale (run UPDATE_DOCS=1 go test -run TestREADMEGeneratedTables .):\n--- committed ---\n%s\n--- generated ---\n%s", name, got, want)
	}
	if update && text != string(buf) {
		if err := os.WriteFile("README.md", []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("README.md updated")
	}
}

// explorationDocSpec is the worked example docs/EXPLORATION.md walks
// through — the same fixture the explore package's markdown golden pins.
func explorationDocSpec() photoloop.ExploreSpec {
	return photoloop.ExploreSpec{
		Base: photoloop.SweepBase{Preset: "albireo"},
		Axes: []photoloop.ExploreAxis{
			{Param: "or_lanes", Values: []any{1, 3, 5}},
			{Param: "output_lanes", Values: []any{3, 9, 15}},
			{Param: "weight_reuse", Values: []any{false, true}},
		},
		Workload:      photoloop.SweepWorkload{Network: "alexnet"},
		Objectives:    []string{"energy", "area"},
		MapperBudget:  60,
		Seed:          1,
		SearchWorkers: 1,
	}
}

// TestExplorationDocExample reproduces docs/EXPLORATION.md's worked
// frontier: the committed table between the marker comments must match
// what the explorer computes today. Run with UPDATE_DOCS=1 to rewrite
// the document in place after a model or mapper change.
func TestExplorationDocExample(t *testing.T) {
	f, err := photoloop.Explore(explorationDocSpec(), photoloop.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var rendered strings.Builder
	if err := f.WriteMarkdown(&rendered); err != nil {
		t.Fatal(err)
	}
	want := strings.TrimRight(rendered.String(), "\n") + "\n"

	path := filepath.Join("docs", "EXPLORATION.md")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(buf)
	const begin = "<!-- generated:frontier-example:begin -->\n"
	const end = "<!-- generated:frontier-example:end -->"
	bi := strings.Index(text, begin)
	ei := strings.Index(text, end)
	if bi < 0 || ei < 0 || ei < bi {
		t.Fatalf("%s: frontier-example markers missing or out of order", path)
	}
	got := text[bi+len(begin) : ei]
	if got == want {
		return
	}
	if os.Getenv("UPDATE_DOCS") != "" {
		text = text[:bi+len(begin)] + want + text[ei:]
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("docs/EXPLORATION.md updated")
		return
	}
	t.Errorf("%s worked example is stale (run UPDATE_DOCS=1 go test -run TestExplorationDocExample .):\n--- committed ---\n%s\n--- computed ---\n%s", path, got, want)
}

// TestREADMESubcommandsDocumented keeps the README and `photoloop help`
// honest: every CLI subcommand must appear in the README's command-line
// session.
func TestREADMESubcommandsDocumented(t *testing.T) {
	buf, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(buf)
	for _, sub := range []string{
		"eval", "sweep", "explore", "study", "jobs", "serve", "worker",
		"repro", "template", "networks", "presets", "classes",
	} {
		if !strings.Contains(text, "photoloop "+sub) {
			t.Errorf("README.md does not document the %q subcommand", sub)
		}
	}
	// And the usage text in cmd/photoloop must list them all too.
	main, err := os.ReadFile(filepath.Join("cmd", "photoloop", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{
		"photoloop eval", "photoloop sweep", "photoloop explore",
		"photoloop study", "photoloop jobs", "photoloop serve",
		"photoloop worker", "photoloop repro", "photoloop template",
		"photoloop networks", "photoloop presets", "photoloop classes",
		"photoloop version", "photoloop help",
	} {
		if !bytes.Contains(main, []byte(sub)) {
			t.Errorf("cmd/photoloop usage does not mention %q", sub)
		}
	}
}
