// Command doccheck is the documentation linter run by CI's docs job. It
// enforces seven invariants that markdown and godoc rot silently break:
//
//  1. Every relative link in the repository's *.md files resolves to an
//     existing file (anchors and external URLs are not checked).
//  2. Every exported identifier in the packages listed in checkedPackages
//     carries a doc comment — the observability surface is documentation
//     first, so an undocumented export is a build failure, not a nit.
//  3. The taxonomy docs stay complete: docs/TESTING.md and
//     docs/OBSERVABILITY.md must mention every lifecycle event kind and
//     every squash reason the machine can emit, taken from the canonical
//     lists in internal/core and internal/obs — adding a reason without
//     documenting it is a build failure.
//  4. The tracked benchmark baseline stays documented: every entry name
//     in BENCH_core.json must be mentioned in docs/PERFORMANCE.md, so a
//     new metric recorded by cmd/msspbench cannot land undocumented; for
//     the task/*, parallel/* and predict/* entries every history label
//     must be mentioned too (they carry ablation pairs like
//     unpooled/pooled whose meaning lives in the doc).
//  5. The static-analysis rule catalogs stay documented: every rule ID in
//     internal/vet (MV...) and its Go-source companion (GA...) must be
//     mentioned in docs/ANALYSIS.md.
//  6. The memory-model contract stays complete: docs/MEMORY.md must mention
//     every exported identifier of internal/mem and of the task pool
//     (internal/task/pool.go) — the lifecycle/aliasing rules live there,
//     and an API addition that skips the contract is a build failure.
//  7. The security write-up stays complete: docs/SECURITY.md must mention
//     every static taint rule (vet.TaintRules) and every dynamic flag kind
//     (taint.AllFlags), and README.md, docs/ANALYSIS.md and docs/TESTING.md
//     must each link to it — the taint suite's taxonomies are governed by
//     the same no-undocumented-extension rule as the squash reasons.
//
// Usage:
//
//	doccheck [-root DIR]
//
// It prints one line per violation and exits non-zero if any were found.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"mssp/internal/core"
	"mssp/internal/obs"
	"mssp/internal/taint"
	"mssp/internal/vet"
)

// checkedPackages are the directories whose exported identifiers must all
// be documented. internal/obs is the PR-2 observability layer and
// internal/chaos the PR-3 fuzzing harness; extend this list as packages
// graduate to "documentation-complete".
var checkedPackages = []string{
	"internal/core",
	"internal/obs",
	"internal/chaos",
	"internal/dataflow",
	"internal/vet",
	"internal/parallel",
	"internal/task",
	"internal/mem",
	"internal/fuse",
	"internal/taint",
}

// taxonomyDocs are the markdown files that must each mention every
// lifecycle event kind and every squash reason.
var taxonomyDocs = []string{
	"docs/TESTING.md",
	"docs/OBSERVABILITY.md",
}

// lifecycleKinds is the canonical event-kind vocabulary the taxonomy docs
// must cover.
var lifecycleKinds = []string{
	string(obs.KindFork), string(obs.KindDispatch), string(obs.KindVerify),
	string(obs.KindCommit), string(obs.KindSquash),
	string(obs.KindFallbackEnter), string(obs.KindFallbackExit),
}

// mdLink matches inline markdown links and images: [text](target).
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)[^)]*\)`)

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()

	var problems []string
	problems = append(problems, checkLinks(*root)...)
	for _, pkg := range checkedPackages {
		problems = append(problems, checkDocs(*root, pkg)...)
	}
	for _, doc := range taxonomyDocs {
		problems = append(problems, checkTaxonomy(*root, doc)...)
	}
	problems = append(problems, checkBenchDoc(*root)...)
	problems = append(problems, checkAnalysisRules(*root)...)
	problems = append(problems, checkMemoryDoc(*root)...)
	problems = append(problems, checkSecurityDoc(*root)...)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// checkLinks verifies that every relative markdown link under root points
// at an existing file or directory.
func checkLinks(root string) []string {
	var problems []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == ".git" || name == "node_modules" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".md") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if skipLink(target) {
					continue
				}
				target = strings.SplitN(target, "#", 2)[0]
				if target == "" {
					continue // pure in-page anchor
				}
				resolved := filepath.Join(filepath.Dir(path), target)
				if _, err := os.Stat(resolved); err != nil {
					rel, _ := filepath.Rel(root, path)
					problems = append(problems,
						fmt.Sprintf("%s:%d: broken link %q (%s does not exist)", rel, i+1, m[1], resolved))
				}
			}
		}
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("doccheck: walking %s: %v", root, err))
	}
	return problems
}

// checkTaxonomy verifies that doc mentions every lifecycle event kind and
// every squash reason, as backtick-quoted terms (`livein`), so a taxonomy
// extension cannot land without its documentation.
func checkTaxonomy(root, doc string) []string {
	path := filepath.Join(root, doc)
	b, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("doccheck: taxonomy doc %s: %v", doc, err)}
	}
	text := string(b)
	var problems []string
	check := func(what string, terms []string) {
		for _, term := range terms {
			if !strings.Contains(text, "`"+term+"`") {
				problems = append(problems,
					fmt.Sprintf("%s: %s `%s` is never mentioned", doc, what, term))
			}
		}
	}
	check("lifecycle event kind", lifecycleKinds)
	check("squash reason", core.AllSquashReasons())
	return problems
}

// checkBenchDoc verifies that docs/PERFORMANCE.md mentions every metric
// tracked in BENCH_core.json, as a backtick-quoted name (`cpu/step`). For
// the task/*, parallel/* and predict/* entries it additionally requires
// every history label to be mentioned: those entries carry ablation pairs
// (`unpooled` vs `pooled`, `off` vs `predict`) and per-PR run labels whose
// meaning is only recorded in the doc. The JSON is read directly rather than through a package so the
// linter stays decoupled from the benchmark tool's internals.
func checkBenchDoc(root string) []string {
	const benchFile = "BENCH_core.json"
	const perfDoc = "docs/PERFORMANCE.md"
	b, err := os.ReadFile(filepath.Join(root, benchFile))
	if err != nil {
		return []string{fmt.Sprintf("doccheck: %s: %v", benchFile, err)}
	}
	var f struct {
		Schema  string `json:"schema"`
		Entries []struct {
			Name    string `json:"name"`
			History []struct {
				Label string `json:"label"`
			} `json:"history"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return []string{fmt.Sprintf("doccheck: %s: %v", benchFile, err)}
	}
	doc, err := os.ReadFile(filepath.Join(root, perfDoc))
	if err != nil {
		return []string{fmt.Sprintf("doccheck: %s: %v", perfDoc, err)}
	}
	text := string(doc)
	var problems []string
	for _, e := range f.Entries {
		if !strings.Contains(text, "`"+e.Name+"`") {
			problems = append(problems,
				fmt.Sprintf("%s: tracked benchmark entry `%s` (%s) is never mentioned", perfDoc, e.Name, benchFile))
		}
		if !strings.HasPrefix(e.Name, "task/") && !strings.HasPrefix(e.Name, "parallel/") &&
			!strings.HasPrefix(e.Name, "predict/") {
			continue
		}
		for _, h := range e.History {
			if h.Label != "" && !strings.Contains(text, "`"+h.Label+"`") {
				problems = append(problems,
					fmt.Sprintf("%s: benchmark label `%s` on entry `%s` (%s) is never mentioned", perfDoc, h.Label, e.Name, benchFile))
			}
		}
	}
	return problems
}

// memoryDocTargets are the package directories whose exported API must be
// covered by docs/MEMORY.md. A non-empty onlyFile restricts the scan to a
// single file — internal/task's execution surface is documented in
// ARCHITECTURE.md; only its pooling layer belongs to the memory contract.
var memoryDocTargets = []struct {
	dir      string
	onlyFile string
}{
	{"internal/mem", ""},
	{"internal/task", "pool.go"},
}

// checkMemoryDoc verifies that docs/MEMORY.md — the ownership, pooling and
// aliasing contract — mentions every exported identifier of the packages in
// memoryDocTargets. Plain names must appear backtick-quoted (`Overlay`);
// methods as `Recv.Name` (`Overlay.Reset`), so the doc cannot satisfy the
// check with an ambiguous bare verb.
func checkMemoryDoc(root string) []string {
	const memDoc = "docs/MEMORY.md"
	b, err := os.ReadFile(filepath.Join(root, memDoc))
	if err != nil {
		return []string{fmt.Sprintf("doccheck: %s: %v", memDoc, err)}
	}
	text := string(b)
	var problems []string
	for _, tgt := range memoryDocTargets {
		names, err := exportedAPI(filepath.Join(root, tgt.dir), tgt.onlyFile)
		if err != nil {
			problems = append(problems, fmt.Sprintf("doccheck: %v", err))
			continue
		}
		for _, n := range names {
			if !strings.Contains(text, "`"+n+"`") {
				problems = append(problems,
					fmt.Sprintf("%s: %s export `%s` is never mentioned", memDoc, tgt.dir, n))
			}
		}
	}
	return problems
}

// exportedAPI returns a package directory's exported top-level names: types,
// funcs, consts and vars as Name, methods on exported receivers as
// Recv.Name. Test files are skipped; a non-empty onlyFile restricts the
// scan to that one file.
func exportedAPI(dir, onlyFile string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		if strings.HasSuffix(fi.Name(), "_test.go") {
			return false
		}
		return onlyFile == "" || fi.Name() == onlyFile
	}, 0)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %v", dir, err)
	}
	var names []string
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if recv := recvTypeName(d); recv != "" {
						if ast.IsExported(recv) {
							names = append(names, recv+"."+d.Name.Name)
						}
					} else {
						names = append(names, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								names = append(names, s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									names = append(names, n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return names, nil
}

// recvTypeName returns the name of a method's receiver type, or "" for a
// plain function.
func recvTypeName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// checkAnalysisRules verifies that docs/ANALYSIS.md documents every rule
// in the msspvet catalogs (internal/vet.Rules and the Go-source rules in
// vet.GoRules) as a backtick-quoted ID (`MV001`), so a new check cannot
// land without its catalog entry.
func checkAnalysisRules(root string) []string {
	const analysisDoc = "docs/ANALYSIS.md"
	b, err := os.ReadFile(filepath.Join(root, analysisDoc))
	if err != nil {
		return []string{fmt.Sprintf("doccheck: %s: %v", analysisDoc, err)}
	}
	text := string(b)
	var problems []string
	for _, rules := range [][]vet.Rule{vet.Rules, vet.GoRules} {
		for _, r := range rules {
			if !strings.Contains(text, "`"+r.ID+"`") {
				problems = append(problems,
					fmt.Sprintf("%s: msspvet rule `%s` (%s) is never documented", analysisDoc, r.ID, r.Name))
			}
		}
	}
	return problems
}

// checkSecurityDoc verifies that docs/SECURITY.md — the speculative-taint
// write-up — mentions every static taint rule ID (vet.TaintRules) and every
// dynamic flag kind (taint.AllFlags) as backtick-quoted terms, and that the
// documents which gate on the suite (README.md, docs/ANALYSIS.md,
// docs/TESTING.md) each link to it.
func checkSecurityDoc(root string) []string {
	const secDoc = "docs/SECURITY.md"
	b, err := os.ReadFile(filepath.Join(root, secDoc))
	if err != nil {
		return []string{fmt.Sprintf("doccheck: %s: %v", secDoc, err)}
	}
	text := string(b)
	var problems []string
	check := func(what string, terms []string) {
		for _, term := range terms {
			if !strings.Contains(text, "`"+term+"`") {
				problems = append(problems,
					fmt.Sprintf("%s: %s `%s` is never mentioned", secDoc, what, term))
			}
		}
	}
	check("static taint rule", vet.TaintRules)
	check("dynamic taint flag", taint.AllFlags())
	for _, doc := range []string{"README.md", "docs/ANALYSIS.md", "docs/TESTING.md"} {
		db, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			problems = append(problems, fmt.Sprintf("doccheck: %s: %v", doc, err))
			continue
		}
		if !strings.Contains(string(db), "SECURITY.md") {
			problems = append(problems,
				fmt.Sprintf("%s: does not link to %s", doc, secDoc))
		}
	}
	return problems
}

// skipLink reports whether a link target is outside doccheck's remit:
// absolute URLs, mail links, and intra-page anchors.
func skipLink(target string) bool {
	return strings.Contains(target, "://") ||
		strings.HasPrefix(target, "mailto:") ||
		strings.HasPrefix(target, "#")
}

// checkDocs parses every non-test Go file in pkg and reports exported
// declarations without a doc comment.
func checkDocs(root, pkg string) []string {
	dir := filepath.Join(root, pkg)
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("doccheck: parsing %s: %v", dir, err)}
	}
	var problems []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		rel, _ := filepath.Rel(root, p.Filename)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", rel, p.Line, what, name))
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && exportedRecv(d) && d.Doc == nil {
						report(d.Pos(), "function", d.Name.Name)
					}
				case *ast.GenDecl:
					problems = append(problems, checkGenDecl(fset, root, d)...)
				}
			}
		}
	}
	return problems
}

// exportedRecv reports whether a method's receiver type is exported (or the
// decl is a plain function). Methods on unexported types need no doc.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// checkGenDecl reports undocumented exported types, consts and vars. A doc
// comment on the grouped declaration covers its specs; otherwise each
// exported spec needs its own.
func checkGenDecl(fset *token.FileSet, root string, d *ast.GenDecl) []string {
	if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
		return nil
	}
	var problems []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		rel, _ := filepath.Rel(root, p.Filename)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", rel, p.Line, what, name))
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
				report(s.Pos(), "type", s.Name.Name)
			}
			if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
				for _, field := range st.Fields.List {
					for _, n := range field.Names {
						if n.IsExported() && field.Doc == nil && field.Comment == nil {
							report(n.Pos(), "field", s.Name.Name+"."+n.Name)
						}
					}
				}
			}
		case *ast.ValueSpec:
			for _, n := range s.Names {
				if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					report(n.Pos(), strings.ToLower(d.Tok.String()), n.Name)
				}
			}
		}
	}
	return problems
}
