package paradigms

// Documentation lints: the repo's doc comments cite DESIGN.md sections,
// EXPERIMENTS.md, and paper sections (§); these tests keep those
// references resolvable so the docs cannot silently rot.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"paradigms/internal/bench"
)

// extensionPackages are internal packages that extend the repo beyond the
// paper; their package doc must state a role instead of a paper section.
var extensionPackages = map[string]string{
	"server":    "extension", // inter-query concurrency layer
	"iosim":     "substrate", // out-of-memory experiment substrate
	"registry":  "extension", // engine-agnostic query catalog
	"sql":       "extension", // ad-hoc SQL lexer/parser/binder
	"catalog":   "extension", // schema layer of the SQL front-end
	"logical":   "extension", // logical planner + vectorized lowering
	"compiled":  "extension", // compiled (Typer-style) SQL lowering
	"sqlcheck":  "extension", // differential-test generator/oracle/minis
	"prepcache": "extension", // prepared statements, plan cache, cardinality feedback
	"proto":     "extension", // network protocol of the serving front-end
	"obs":       "extension", // execution telemetry: EXPLAIN ANALYZE, query log, metrics
	"feedback":  "extension", // cardinality feedback: drift-triggered re-planning, prewarm mining
	"exchange":  "extension", // sharded scatter/gather execution over catalog slices
	"engine":    "extension", // the one execution dispatch over the three SQL backends
}

// packageDoc returns the package doc comment of the Go package in dir.
func packageDoc(t *testing.T, dir string) string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	doc := ""
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if f.Doc != nil && len(f.Doc.Text()) > len(doc) {
				doc = f.Doc.Text()
			}
		}
	}
	return doc
}

// TestEveryInternalPackageIsDocumented: each internal/ package carries a
// package doc comment that states its paper section (§) — or, for
// extensions, its role.
func TestEveryInternalPackageIsDocumented(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no internal packages found (err=%v)", err)
	}
	for _, dir := range dirs {
		name := filepath.Base(dir)
		doc := packageDoc(t, dir)
		if doc == "" {
			t.Errorf("internal/%s has no package doc comment", name)
			continue
		}
		if role, isExt := extensionPackages[name]; isExt {
			if !strings.Contains(doc, role) {
				t.Errorf("internal/%s is an extension; its doc must state its role (%q)", name, role)
			}
			continue
		}
		if !strings.Contains(doc, "§") {
			t.Errorf("internal/%s package doc cites no paper section (§)", name)
		}
	}
}

// goSources lists every .go file in the repo.
func goSources(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 50 {
		t.Fatalf("suspiciously few Go files found: %d", len(files))
	}
	return files
}

// TestDesignReferencesResolve: every "DESIGN.md §n", "DESIGN.md Sn", and
// "DESIGN.md ablation n" citation in a doc comment resolves to a real
// anchor in DESIGN.md.
func TestDesignReferencesResolve(t *testing.T) {
	designBytes, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatalf("DESIGN.md missing: %v", err)
	}
	design := string(designBytes)

	refRe := regexp.MustCompile(`DESIGN\.md[ \t]+(§\d+|S\d+(?:/S\d+)?|[Aa]blation \d+)`)
	sectionRe := regexp.MustCompile(`(?m)^## (§\d+) `)
	subRe := regexp.MustCompile(`(?m)^### (S\d+) `)
	ablRe := regexp.MustCompile(`(?i)\bablation (\d+)\b`)

	anchors := map[string]bool{}
	for _, m := range sectionRe.FindAllStringSubmatch(design, -1) {
		anchors[m[1]] = true
	}
	for _, m := range subRe.FindAllStringSubmatch(design, -1) {
		anchors[m[1]] = true
	}
	for _, m := range ablRe.FindAllStringSubmatch(design, -1) {
		anchors["ablation "+m[1]] = true
	}

	seen := 0
	for _, file := range goSources(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range refRe.FindAllStringSubmatch(string(src), -1) {
			ref := m[1]
			var keys []string
			switch {
			case strings.HasPrefix(ref, "§"):
				keys = []string{ref}
			case strings.HasPrefix(ref, "S"):
				keys = strings.Split(ref, "/") // "S1/S7" cites both
			default:
				keys = []string{"ablation " + strings.Fields(ref)[1]}
			}
			for _, key := range keys {
				seen++
				if !anchors[key] {
					t.Errorf("%s cites DESIGN.md %s, which has no anchor", file, key)
				}
			}
		}
	}
	if seen == 0 {
		t.Error("no DESIGN.md citations found; the reference regexp is broken")
	}
}

// TestExperimentsDocCoversAllExperiments: EXPERIMENTS.md exists and
// mentions every experiment id cmd/repro accepts.
func TestExperimentsDocCoversAllExperiments(t *testing.T) {
	expBytes, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatalf("EXPERIMENTS.md missing: %v", err)
	}
	doc := string(expBytes)
	for _, id := range bench.SortedExperimentNames() {
		if !strings.Contains(doc, "`"+id+"`") {
			t.Errorf("EXPERIMENTS.md does not document experiment %q", id)
		}
	}
}

// TestReadmeMapsEveryPackage: the README repo map mentions every
// internal package and both commands' invocations.
func TestReadmeMapsEveryPackage(t *testing.T) {
	readmeBytes, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("README.md missing: %v", err)
	}
	readme := string(readmeBytes)
	dirs, _ := filepath.Glob("internal/*")
	for _, dir := range dirs {
		if !strings.Contains(readme, "internal/"+filepath.Base(dir)) {
			t.Errorf("README.md repo map is missing %s", dir)
		}
	}
	for _, cmd := range []string{"go run ./cmd/repro", "go run ./cmd/serve", "go test ./..."} {
		if !strings.Contains(readme, cmd) {
			t.Errorf("README.md quickstart is missing %q", cmd)
		}
	}
}

// TestServeImportGraph pins ROADMAP item 3(d): the serving binary links
// neither the modeled-counter simulator, the I/O simulator, nor the
// cmd/repro experiment harness.
func TestServeImportGraph(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "./cmd/serve").Output()
	if err != nil {
		t.Fatalf("go list -deps ./cmd/serve: %v", err)
	}
	deps := strings.Fields(string(out))
	if len(deps) < 20 {
		t.Fatalf("suspiciously few dependencies listed: %d", len(deps))
	}
	for _, dep := range deps {
		for _, banned := range []string{"microsim", "iosim", "bench"} {
			if dep == "paradigms/internal/"+banned {
				t.Errorf("cmd/serve depends on internal/%s", banned)
			}
		}
	}
}

// TestOneSQLDriver pins the structure DESIGN.md §8 describes: the SQL
// backends and the dispatch share one pipeline driver — one place
// allocates the aggregation spill — and the backends export exactly
// seven execution entry points.
func TestOneSQLDriver(t *testing.T) {
	entryRe := regexp.MustCompile(`(?m)^func .*(Execute[A-Za-z]*|Run)\(`)
	spills, entries := 0, 0
	for _, file := range goSources(t) {
		dir := filepath.ToSlash(filepath.Dir(file))
		if strings.HasSuffix(file, "_test.go") || !strings.HasPrefix(dir, "internal/") {
			continue
		}
		pkg := strings.TrimPrefix(dir, "internal/")
		backend := pkg == "compiled" || pkg == "logical" || pkg == "hybrid"
		if !backend && pkg != "engine" {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		spills += strings.Count(string(src), "hashtable.NewSpill(")
		if backend {
			entries += len(entryRe.FindAll(src, -1))
		}
	}
	if spills != 1 {
		t.Errorf("hashtable.NewSpill( occurs %d times under internal/{compiled,logical,hybrid,engine}, want 1 (the driver)", spills)
	}
	if entries != 7 {
		t.Errorf("the backends export %d Execute*/Run entry points, want 7", entries)
	}
}

// TestOneFrontDoor pins the structure DESIGN.md §5 describes: the
// service reaches the engines through one typed Executor —
// server.Config has exactly one field of that type and no function
// field whose signature mentions `any` — and only one place in the root
// package tells SQL from a query name: the service's door check (the
// facade's name-vs-SQL fork lives in registry.Run).
func TestOneFrontDoor(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "internal/server/server.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The package's named function types, so a hook declared through one
	// (type ExecFunc func(...) (any, error)) is seen through.
	funcTypes := map[string]*ast.FuncType{}
	var config *ast.StructType
	ast.Inspect(file, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok {
			switch typ := ts.Type.(type) {
			case *ast.FuncType:
				funcTypes[ts.Name.Name] = typ
			case *ast.StructType:
				if ts.Name.Name == "Config" {
					config = typ
				}
			}
		}
		return true
	})
	if config == nil {
		t.Fatal("internal/server/server.go declares no Config struct")
	}
	executors := 0
	for _, f := range config.Fields.List {
		fn, _ := f.Type.(*ast.FuncType)
		if id, ok := f.Type.(*ast.Ident); ok {
			if id.Name == "Executor" {
				executors += len(f.Names)
			}
			fn = funcTypes[id.Name]
		}
		if fn == nil {
			continue
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "any" {
				t.Errorf("server.Config.%s is a function hook typed in any", f.Names[0].Name)
			}
			return true
		})
	}
	if executors != 1 {
		t.Errorf("server.Config has %d Executor fields, want exactly 1", executors)
	}

	roots, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	forks := 0
	for _, name := range roots {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		forks += strings.Count(string(src), "sql.IsQuery(")
	}
	if forks > 1 {
		t.Errorf("the root package calls sql.IsQuery( %d times, want at most 1 (the service's door check)", forks)
	}
}

// TestOneFusedLoop pins the structure DESIGN.md §9 describes: the
// compiled backend has one morsel loop, (*pipe).run with its staged
// range filter, so non-test internal/compiled claims morsels at exactly
// one Disp().Next() call site (the dispatcher the driver binds into
// each logical.Pipeline) and a hand-specialized loop variant cannot
// come back unnoticed.
func TestOneFusedLoop(t *testing.T) {
	files, err := filepath.Glob("internal/compiled/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var sites []string
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Next" {
				return true
			}
			if recv, ok := sel.X.(*ast.CallExpr); ok {
				if fun, ok := recv.Fun.(*ast.SelectorExpr); ok && fun.Sel.Name == "Disp" {
					sites = append(sites, fset.Position(call.Pos()).String())
				}
			}
			return true
		})
	}
	if len(sites) != 1 {
		t.Errorf("internal/compiled calls Disp().Next() at %d sites, want 1 (the fused loop): %v", len(sites), sites)
	}
}

// TestOnePipelineDecomposition pins DESIGN.md §12 "Shared pipeline
// boundaries": one non-test function walks a join's probe chain (an
// assignment from a .Probe field) to order a plan's pipelines —
// logical's decompose, behind logical.Decompose, whose result both
// lowerings, the driver, the telemetry and the hybrid's assignment read
// — and internal/compiled declares no decomposition of its own.
func TestOnePipelineDecomposition(t *testing.T) {
	fset := token.NewFileSet()
	var walkers []string
	for _, file := range goSources(t) {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			site := dir + "." + funcSite(fn)
			if dir == "internal/compiled" && fn.Name.Name == "compilePipe" {
				t.Errorf("%s declares compilePipe", site)
			}
			walks := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok {
					for _, rhs := range as.Rhs {
						if sel, ok := rhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Probe" {
							walks = true
						}
					}
				}
				return true
			})
			if walks {
				walkers = append(walkers, site)
			}
		}
	}
	if want := []string{"internal/logical.decompose"}; !reflect.DeepEqual(walkers, want) {
		t.Errorf("probe chains are walked in %v, want %v", walkers, want)
	}
}

// TestOneFilterClassifier pins the structure DESIGN.md §9 describes: a scan's
// pushed-down conjuncts are classified in one function,
// logical.classifyFilters — the only non-test function that builds a
// logical.Filters, Range or StrFilter or sets RejectAll — and both
// lowerings read its result: compiled.(*pipe).compileFilters and
// logical.(*worker).filterPreds each read the classified Ranges and
// Strs, logical.BindExprs binds the classified Residual to the
// programs both run, and no lowering function reads a scan's raw
// conjuncts (a .Scan.Filters selector) except compiled.Explain, which
// renders them.
func TestOneFilterClassifier(t *testing.T) {
	lowering := map[string]bool{ // files of the two lowerings and the driver
		"internal/logical/compile.go": true, "internal/logical/exec.go": true,
		"internal/logical/hybrid.go": true, "internal/logical/driver.go": true,
	}
	classified := map[string]bool{"Filters": true, "Range": true, "StrFilter": true}
	fset := token.NewFileSet()
	var writers, rawReaders []string
	reads := map[string]map[string]bool{} // site → classified fields read
	for _, file := range goSources(t) {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			site := dir + "." + funcSite(fn)
			writes := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					switch typ := n.Type.(type) {
					case *ast.Ident:
						writes = writes || dir == "internal/logical" && classified[typ.Name]
					case *ast.SelectorExpr:
						if pkg, ok := typ.X.(*ast.Ident); ok && pkg.Name == "logical" && classified[typ.Sel.Name] {
							writes = true
						}
					}
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok && key.Name == "RejectAll" {
						writes = true
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "RejectAll" {
							writes = true
						}
					}
				case *ast.SelectorExpr:
					switch n.Sel.Name {
					case "Ranges", "Strs", "Residual":
						if reads[site] == nil {
							reads[site] = map[string]bool{}
						}
						reads[site][n.Sel.Name] = true
					case "Filters":
						if scan, ok := n.X.(*ast.SelectorExpr); ok && scan.Sel.Name == "Scan" &&
							(dir == "internal/compiled" || lowering[filepath.ToSlash(file)]) {
							rawReaders = append(rawReaders, site)
						}
					}
				}
				return true
			})
			if writes {
				writers = append(writers, site)
			}
		}
	}
	if want := []string{"internal/logical.classifyFilters"}; !reflect.DeepEqual(writers, want) {
		t.Errorf("classified filters are built in %v, want %v", writers, want)
	}
	for site, fields := range map[string][]string{
		"internal/compiled.(*pipe).compileFilters": {"Ranges", "Strs"},
		"internal/logical.(*worker).filterPreds":   {"Ranges", "Strs"},
		"internal/logical.BindExprs":               {"Residual"},
	} {
		for _, field := range fields {
			if !reads[site][field] {
				t.Errorf("%s does not read the classified %s", site, field)
			}
		}
	}
	if want := []string{"internal/compiled.Explain"}; !reflect.DeepEqual(rawReaders, want) {
		t.Errorf("a lowering reads a scan's raw conjuncts in %v, want only %v", rawReaders, want)
	}
}

// TestOneExpressionProgram pins DESIGN.md §8's expression program:
// one non-test function builds a logical.Prog — (*Pipeline).Program,
// which BindExprs calls once per lowering — and its ops are built only
// there and in (*Pipeline).Leaf, the column leaves key and payload
// getters read too. Neither lowering interprets SQL expressions: no
// function in internal/compiled, or in the vectorized lowering's and
// the driver's files of internal/logical, type-switches on or asserts
// an internal/sql node.
func TestOneExpressionProgram(t *testing.T) {
	lowering := map[string]bool{
		"internal/logical/compile.go": true, "internal/logical/exec.go": true,
		"internal/logical/hybrid.go": true, "internal/logical/driver.go": true,
		"internal/logical/stream.go": true,
	}
	fset := token.NewFileSet()
	builders := map[string][]string{} // "Prog", "Op" → sites with a non-empty literal
	var interpreters []string
	for _, file := range goSources(t) {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		lowers := dir == "internal/compiled" || lowering[filepath.ToSlash(file)]
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			site := dir + "." + funcSite(fn)
			built := map[string]bool{}
			sqlNode := func(e ast.Expr) bool {
				if star, ok := e.(*ast.StarExpr); ok {
					e = star.X
				}
				sel, ok := e.(*ast.SelectorExpr)
				if !ok {
					return false
				}
				pkg, ok := sel.X.(*ast.Ident)
				return ok && pkg.Name == "sql"
			}
			interprets := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := n.Type
					if sel, ok := typ.(*ast.SelectorExpr); ok {
						if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "logical" {
							break
						}
						typ = sel.Sel
					} else if dir != "internal/logical" {
						break
					}
					if id, ok := typ.(*ast.Ident); ok && (id.Name == "Prog" || id.Name == "Op") && len(n.Elts) > 0 {
						built[id.Name] = true
					}
				case *ast.TypeAssertExpr:
					interprets = interprets || n.Type != nil && sqlNode(n.Type)
				case *ast.TypeSwitchStmt:
					for _, c := range n.Body.List {
						for _, typ := range c.(*ast.CaseClause).List {
							interprets = interprets || sqlNode(typ)
						}
					}
				}
				return true
			})
			for name := range built {
				builders[name] = append(builders[name], site)
			}
			if lowers && interprets {
				interpreters = append(interpreters, site)
			}
		}
	}
	sort.Strings(builders["Op"])
	want := map[string][]string{
		"Prog": {"internal/logical.(*Pipeline).Program"},
		"Op":   {"internal/logical.(*Pipeline).Leaf", "internal/logical.(*Pipeline).Program"},
	}
	for name, w := range want {
		if !reflect.DeepEqual(builders[name], w) {
			t.Errorf("%s values are built in %v, want %v", name, builders[name], w)
		}
	}
	if len(interpreters) > 0 {
		t.Errorf("lowering functions interpret SQL expression nodes: %v", interpreters)
	}
}

// TestOneBlockFold pins the loop-shape decision DESIGN.md §9 describes:
// a compiled pipeline's loop shape — row checks and probes per row
// (survivors), the one-probe loop (probeOne), or row-free — and a
// row-free pipeline's block fold are assigned in one lowering function,
// (*pipe).shapeLoop; the shape is read only by (*pipe).run, the fused
// loop that alone calls the three block handlers. Sites are named with
// their receiver.
func TestOneBlockFold(t *testing.T) {
	files, err := filepath.Glob("internal/compiled/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	sites := map[string]map[string]bool{} // "loop=", "fold=", "loop", callee → sites
	note := func(name, site string) {
		if sites[name] == nil {
			sites[name] = map[string]bool{}
		}
		sites[name][site] = true
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			site := "internal/compiled." + funcSite(fn)
			written := map[ast.Node]bool{}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && (sel.Sel.Name == "loop" || sel.Sel.Name == "fold") {
							note(sel.Sel.Name+"=", site)
							written[sel] = true
						}
					}
				case *ast.SelectorExpr:
					if n.Sel.Name == "loop" && !written[n] {
						note("loop", site)
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
						switch sel.Sel.Name {
						case "survivors", "probeOne", "block":
							note(sel.Sel.Name, site)
						}
					}
				}
				return true
			})
		}
	}
	want := map[string][]string{
		"loop=":     {"internal/compiled.(*pipe).shapeLoop"},
		"fold=":     {"internal/compiled.(*pipe).shapeLoop"},
		"loop":      {"internal/compiled.(*pipe).run"},
		"survivors": {"internal/compiled.(*pipe).run"},
		"probeOne":  {"internal/compiled.(*pipe).run"},
		"block":     {"internal/compiled.(*pipe).run"},
	}
	for name, w := range want {
		var got []string
		for s := range sites[name] {
			got = append(got, s)
		}
		sort.Strings(got)
		sort.Strings(w)
		if !reflect.DeepEqual(got, w) {
			t.Errorf("%s at %v, want %v", name, got, w)
		}
	}
}

// TestNamedQueryPaths pins the named-query table DESIGN.md §7 describes:
// one static table in internal/registry instead of registrations fed
// from init functions, imported only by the facade and the experiment
// harness, in which exactly Q6, Q3, Q5, SSB Q1.1 and SSB Q2.1 run their
// SQL text on Typer and exactly Q6, Q3 and SSB Q1.1 on Tectorwise —
// every other name keeps a hand-written kernel on that engine, so adding
// a kernel back (or retiring one) means editing this test.
func TestNamedQueryPaths(t *testing.T) {
	fset := token.NewFileSet()
	for _, file := range goSources(t) {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		switch dir {
		case "internal/typer", "internal/tw", "internal/plan", "internal/queries":
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == "init" {
					t.Errorf("%s declares func init()", file)
				}
			}
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"paradigms/internal/registry"` && dir != "." && dir != "internal/bench" {
				t.Errorf("%s imports internal/registry (only the root package and internal/bench may)", file)
			}
		}
	}

	f, err := parser.ParseFile(fset, "internal/registry/registry.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sqlOn := map[string][]string{"typer": nil, "tectorwise": nil}
	entries := 0
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "table" || len(vs.Values) != 1 {
			return true
		}
		lit, _ := vs.Values[0].(*ast.CompositeLit)
		if lit == nil {
			t.Fatal("registry.table is not a composite literal")
		}
		for _, elt := range lit.Elts {
			entries++
			name, keys := "", map[string]bool{}
			for _, kv := range elt.(*ast.CompositeLit).Elts {
				kv := kv.(*ast.KeyValueExpr)
				key := kv.Key.(*ast.Ident).Name
				keys[key] = true
				if key == "name" {
					name = strings.Trim(kv.Value.(*ast.BasicLit).Value, `"`)
				}
			}
			for eng := range sqlOn {
				if !keys[eng] {
					sqlOn[eng] = append(sqlOn[eng], name)
				}
			}
		}
		return false
	})
	if entries == 0 {
		t.Fatal("internal/registry/registry.go declares no table entries")
	}
	want := map[string]string{"typer": "Q6,Q3,Q5,Q1.1,Q2.1", "tectorwise": "Q6,Q3,Q1.1"}
	for eng, names := range sqlOn {
		if got := strings.Join(names, ","); got != want[eng] {
			t.Errorf("names running SQL on %s = %s, want %s", eng, got, want[eng])
		}
	}
}

// TestHybridAssignsByCost pins the structure DESIGN.md §12 describes:
// the hybrid gets every pipeline assignment from its static cost
// heuristic and keeps nothing between executions, and engine auto is
// another name for it. Non-test code declares no Decide or Observe
// method (no learning router), no type named Router and no struct
// field named Router (nothing hands the engine dispatch a router),
// logical.Policy has no Observe hook (the driver feeds nothing back to
// a policy), and hybrid.Policy sets Assign only from CostAssign.
func TestHybridAssignsByCost(t *testing.T) {
	fset := token.NewFileSet()
	var learners, routers, observeHooks, assigns []string
	sawLogicalPolicy, sawHybridPolicy := false, false
	for _, file := range goSources(t) {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil && (n.Name.Name == "Decide" || n.Name.Name == "Observe") {
					learners = append(learners, fset.Position(n.Pos()).String())
				}
				if n.Recv == nil && n.Name.Name == "Policy" && dir == "internal/hybrid" && n.Body != nil {
					sawHybridPolicy = true
					assigns = append(assigns, assignSources(fset, n.Body)...)
				}
			case *ast.TypeSpec:
				if n.Name.Name == "Router" {
					routers = append(routers, fset.Position(n.Pos()).String())
				}
				st, ok := n.Type.(*ast.StructType)
				if !ok {
					return true
				}
				isLogicalPolicy := n.Name.Name == "Policy" && dir == "internal/logical"
				sawLogicalPolicy = sawLogicalPolicy || isLogicalPolicy
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if name.Name == "Router" {
							routers = append(routers, fset.Position(name.Pos()).String())
						}
						if isLogicalPolicy && name.Name == "Observe" {
							observeHooks = append(observeHooks, fset.Position(name.Pos()).String())
						}
					}
				}
			}
			return true
		})
	}
	if len(learners) != 0 {
		t.Errorf("non-test code declares Decide/Observe methods (a learning router): %v", learners)
	}
	if len(routers) != 0 {
		t.Errorf("non-test code declares a Router type or struct field: %v", routers)
	}
	if !sawLogicalPolicy {
		t.Error("internal/logical declares no Policy struct")
	}
	if len(observeHooks) != 0 {
		t.Errorf("logical.Policy has an Observe field (a feedback hook from the driver to the policy): %v", observeHooks)
	}
	if !sawHybridPolicy {
		t.Fatal("internal/hybrid declares no Policy function")
	}
	if len(assigns) == 0 {
		t.Error("hybrid.Policy never sets Assign")
	}
	for _, src := range assigns {
		if src != "CostAssign" {
			t.Errorf("hybrid.Policy sets Assign from %s, want only from CostAssign", src)
		}
	}
}

// assignSources names the value of every write to an Assign field in
// body — a `x.Assign = v` statement or an `Assign: v` composite-literal
// element: the called function's name when v is a call, else "<expr at
// pos>".
func assignSources(fset *token.FileSet, body *ast.BlockStmt) []string {
	var out []string
	name := func(v ast.Expr) string {
		if call, ok := v.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				return id.Name
			}
		}
		return "<expr at " + fset.Position(v.Pos()).String() + ">"
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Assign" {
					if len(n.Rhs) == len(n.Lhs) {
						out = append(out, name(n.Rhs[i]))
					} else {
						out = append(out, name(n.Rhs[0]))
					}
				}
			}
		case *ast.KeyValueExpr:
			if key, ok := n.Key.(*ast.Ident); ok && key.Name == "Assign" {
				out = append(out, name(n.Value))
			}
		}
		return true
	})
	return out
}

// TestOneKeyFilter pins the exact key filter DESIGN.md §2 describes: the
// bitmap is built in one internal/hashtable function, PrepareKeyFilter,
// which — like the per-shard KeyBounds before it — only tw.BuildBarrier
// calls; and the filter is read only by the one membership-staging
// function both engines run, logical.(*Pipeline).Members, and by
// tw.Prober's Probe, which tests it only for the Tectorwise hand
// kernels (a lowered plan's staged probe skips it). Reading the
// filter's size (KeyFilter().Bits(), for telemetry) is allowed
// anywhere. Sites are named with their
// receiver ("internal/plan.(*HashProbe).Next"), so a same-named method
// elsewhere in a package is a different site.
func TestOneKeyFilter(t *testing.T) {
	fset := token.NewFileSet()
	var builders, readers []string
	calls := map[string][]string{} // PrepareKeyFilter, KeyBounds → sites
	for _, file := range goSources(t) {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			site := dir + "." + funcSite(fn)
			sized := map[ast.Node]bool{} // KeyFilter() calls whose result is only sized
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if id, ok := n.Type.(*ast.Ident); ok && id.Name == "KeyFilter" && len(n.Elts) > 0 {
						builders = append(builders, site)
					}
				case *ast.SelectorExpr:
					if call, ok := n.X.(*ast.CallExpr); ok && n.Sel.Name == "Bits" {
						sized[call] = true
					}
				case *ast.CallExpr:
					// A method value handed to a barrier
					// (bar.Wait(ht.PrepareKeyFilter)) is a call site too.
					for _, arg := range n.Args {
						if sel, ok := arg.(*ast.SelectorExpr); ok && sel.Sel.Name == "PrepareKeyFilter" {
							calls["PrepareKeyFilter"] = append(calls["PrepareKeyFilter"], site)
						}
					}
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					switch name := sel.Sel.Name; name {
					case "PrepareKeyFilter", "KeyBounds":
						calls[name] = append(calls[name], site)
					case "KeyFilter":
						if !sized[n] {
							readers = append(readers, site)
						}
					}
				}
				return true
			})
		}
	}
	if want := []string{"internal/hashtable.(*Table).PrepareKeyFilter"}; !reflect.DeepEqual(builders, want) {
		t.Errorf("key filter bitmaps are built in %v, want %v", builders, want)
	}
	for _, name := range []string{"PrepareKeyFilter", "KeyBounds"} {
		if want := []string{"internal/tw.BuildBarrier"}; !reflect.DeepEqual(calls[name], want) {
			t.Errorf("%s is called from %v, want %v", name, calls[name], want)
		}
	}
	wantReaders := map[string]bool{
		"internal/logical.(*Pipeline).Members": true,
		"internal/tw.(*Prober).Probe":          true,
	}
	for _, r := range readers {
		if !wantReaders[r] {
			t.Errorf("%s reads the key filter; only the membership stages and tw.Prober may", r)
		}
		delete(wantReaders, r)
	}
	for r := range wantReaders {
		t.Errorf("%s no longer reads the key filter", r)
	}
}

// TestOneKeyIndex pins the two key-domain decisions DESIGN.md §2 and §8
// describe, one place each. A join table's layout — key-indexed or
// hashed — is chosen in one internal/hashtable function (the only
// constructor of a sized KeyIndex), which only tw.BuildBarrier reaches
// (TestOneKeyFilter pins that call), and no Typer hand kernel
// publishes through it. A grouped aggregation's layout — array or
// hashed — is chosen in one internal/logical function (the only
// constructor of a non-zero KeyDomain), called once, by the planner,
// which alone sets Aggregate.Domain.
// The key index is read only by the three probe sites — the one
// membership-staging function, logical.(*Pipeline).Members, which also
// hands it to Typer's probe loops, tw.Prober and plan.ProbeEmitSink
// (testing On() on it, as telemetry does, is allowed anywhere), and aggregation arrays
// are built only by the two phase-one loops.
func TestOneKeyIndex(t *testing.T) {
	fset := token.NewFileSet()
	sites := map[string]map[string]bool{} // literal or callee → sites
	note := func(name, site string) {
		if sites[name] == nil {
			sites[name] = map[string]bool{}
		}
		sites[name][site] = true
	}
	for _, file := range goSources(t) {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			site := dir + "." + funcSite(fn)
			tested := map[ast.Node]bool{} // KeyIndex() calls only tested with On()
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := n.Type
					if sel, ok := typ.(*ast.SelectorExpr); ok { // logical.KeyDomain{...}
						typ = sel.Sel
					}
					if id, ok := typ.(*ast.Ident); ok && len(n.Elts) > 0 &&
						(id.Name == "KeyIndex" || id.Name == "KeyDomain") {
						note(id.Name+"{}", site)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Domain" {
							note("Domain=", site)
						}
					}
				case *ast.SelectorExpr:
					if call, ok := n.X.(*ast.CallExpr); ok && n.Sel.Name == "On" {
						tested[call] = true
					}
				case *ast.CallExpr:
					var name string
					switch fun := n.Fun.(type) {
					case *ast.Ident:
						name = fun.Name
					case *ast.SelectorExpr:
						name = fun.Sel.Name
					}
					switch name {
					case "KeyIndex":
						if !tested[n] {
							note(name, site)
						}
					case "aggDomain", "NewAggArray", "NewArrayGroupBy", "BuildBarrier":
						note(name, site)
					}
				}
				return true
			})
		}
	}
	want := map[string][]string{
		"KeyIndex{}":  {"internal/hashtable.(*Table).PrepareKeyFilter"},
		"KeyDomain{}": {"internal/logical.aggDomain"},
		"aggDomain":   {"internal/logical.PlanQueryHints"},
		"Domain=":     {"internal/logical.PlanQueryHints"},
		"KeyIndex": {
			"internal/logical.(*Pipeline).Members",
			"internal/plan.(*ProbeEmitSink).Consume",
			"internal/tw.(*Prober).Probe",
		},
		"NewAggArray":     {"internal/compiled.(*pipe).runGrouped", "internal/tw.NewArrayGroupBy"},
		"NewArrayGroupBy": {"internal/logical.(*VecWorker).GroupBySink", "internal/plan.NewArrayGroupBy"},
	}
	for name, w := range want {
		var got []string
		for s := range sites[name] {
			got = append(got, s)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, w) {
			t.Errorf("%s at %v, want %v", name, got, w)
		}
	}
	for s := range sites["BuildBarrier"] {
		if strings.HasPrefix(s, "internal/typer.") {
			t.Errorf("%s publishes a Typer hand kernel's table through tw.BuildBarrier; its probes hash", s)
		}
	}
}

// funcSite names a function declaration with its receiver type, e.g.
// "(*HashProbe).Next" or "BuildBarrier".
func funcSite(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	star := ""
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = "*", s.X
	}
	if g, ok := typ.(*ast.IndexExpr); ok { // generic receiver T[P]
		typ = g.X
	}
	name := "?"
	if id, ok := typ.(*ast.Ident); ok {
		name = id.Name
	}
	return "(" + star + name + ")." + fn.Name.Name
}

// TestOneInputSizing pins DESIGN.md §8 "Sizing to the input": one
// definition of the pre-aggregation cap (hashtable.PreAggCapacity),
// grown toward only by the two phase-one loops through
// Table.AggRoom, and one sized executor, created by the shared driver.
func TestOneInputSizing(t *testing.T) {
	fset := token.NewFileSet()
	var caps []string
	calls := map[string][]string{} // AggRoom, NewExec → sites
	for _, file := range goSources(t) {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, name := range vs.Names {
							if strings.EqualFold(name.Name, "PreAggCapacity") {
								caps = append(caps, dir+"."+name.Name)
							}
						}
					}
				}
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				site := dir + "." + funcSite(d)
				ast.Inspect(d.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "AggRoom" || sel.Sel.Name == "NewExec") {
							calls[sel.Sel.Name] = append(calls[sel.Sel.Name], site)
						}
					}
					return true
				})
			}
		}
	}
	if want := []string{"internal/hashtable.PreAggCapacity"}; !reflect.DeepEqual(caps, want) {
		t.Errorf("the pre-aggregation cap is defined as %v, want %v", caps, want)
	}
	sort.Strings(calls["AggRoom"])
	if want := []string{"internal/compiled.(*pipe).runGrouped", "internal/tw.(*GroupBy).HandleMisses"}; !reflect.DeepEqual(calls["AggRoom"], want) {
		t.Errorf("AggRoom is called from %v, want %v", calls["AggRoom"], want)
	}
	if want := []string{"internal/logical.drive"}; !reflect.DeepEqual(calls["NewExec"], want) {
		t.Errorf("plan.NewExec is called from %v, want %v", calls["NewExec"], want)
	}
}
