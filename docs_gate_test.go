package svrdb_test

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

	"svrdb/internal/bench"
)

// TestDocsGate is the documentation gate: every package under internal/
// must carry a godoc package comment (by convention in a doc.go file, but
// any non-test file satisfies go/doc), so `go doc svrdb/internal/<pkg>`
// always gives a real overview of the layer.  A new package added without
// one fails tier-1, not just review.  And the docs may not name what no
// longer exists: every backticked `pkg.Ident` in README.md, ARCHITECTURE.md
// and the internal doc.go files whose pkg names an internal package must
// resolve to a declaration (function, method, type, var or const) in it.
func TestDocsGate(t *testing.T) {
	var pkgDirs []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(pkgDirs) == 0 || pkgDirs[len(pkgDirs)-1] != dir {
				pkgDirs = append(pkgDirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgDirs) < 10 {
		t.Fatalf("docs gate walked only %d package dirs under internal/ — the walk is broken", len(pkgDirs))
	}

	for _, dir := range pkgDirs {
		if !packageHasDoc(t, dir) {
			t.Errorf("package %q has no package comment: add a doc.go with a `// Package <name> ...` overview (see ARCHITECTURE.md)", dir)
		}
	}

	decls := map[string]map[string]bool{} // package name -> declared identifiers
	docs := []string{"README.md", "ARCHITECTURE.md"}
	for _, dir := range pkgDirs {
		name, idents := packageDecls(t, dir)
		decls[name] = idents
		if _, err := os.Stat(filepath.Join(dir, "doc.go")); err == nil {
			docs = append(docs, filepath.Join(dir, "doc.go"))
		}
	}
	ref := regexp.MustCompile(`(?:^|[^\w./])([a-z]+)\.([A-Z]\w*)`)
	for _, doc := range docs {
		for _, span := range backtickSpans(t, doc) {
			for _, m := range ref.FindAllStringSubmatch(span, -1) {
				if idents, ok := decls[m[1]]; ok && !idents[m[2]] {
					t.Errorf("%s: `%s` names %s.%s, which package %s does not declare", doc, span, m[1], m[2], m[1])
				}
			}
		}
	}
}

// packageDecls parses the non-test Go files of dir and returns the package
// name and every top-level identifier they declare, methods included.
func packageDecls(t *testing.T, dir string) (string, map[string]bool) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var name string
	idents := map[string]bool{}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing %s: %v", file, err)
		}
		name = f.Name.Name
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				idents[d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						idents[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							idents[n.Name] = true
						}
					}
				}
			}
		}
	}
	return name, idents
}

// backtickSpans returns the inline code spans of a document, skipping fenced
// code blocks.
func backtickSpans(t *testing.T, path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var prose []string
	fenced := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
		} else if !fenced {
			prose = append(prose, line)
		}
	}
	var spans []string
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(strings.Join(prose, "\n"), -1) {
		spans = append(spans, m[1])
	}
	return spans
}

// packageHasDoc reports whether any non-test Go file in dir carries a
// package doc comment.
func packageHasDoc(t *testing.T, dir string) bool {
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
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatalf("parsing %s/%s: %v", dir, name, err)
		}
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return true
		}
	}
	return false
}

// TestCIPatternsResolve guards ci.yml against renames: `go test -run 'A|B'`
// passes when a name matches nothing, so a step naming a test that has
// since been renamed or deleted keeps going green while running nothing.
// Every alternative of every -run, -bench and -fuzz pattern in the workflow
// (other than the match-nothing `^$` and the match-all `.`) must match a
// Test, Benchmark or Fuzz function declared in a _test.go file of the
// packages that command names.
func TestCIPatternsResolve(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	kindOf := map[string]string{"-run": "Test", "-bench": "Benchmark", "-fuzz": "Fuzz"}
	checked := 0
	for _, line := range strings.Split(string(data), "\n") {
		words := shellWords(line)
		at := -1
		for i := 0; i+1 < len(words); i++ {
			if words[i] == "go" && words[i+1] == "test" {
				at = i + 2
			}
		}
		if at < 0 {
			continue
		}
		var dirs []string
		for _, w := range words[at:] {
			if strings.HasPrefix(w, ".") {
				dirs = append(dirs, w)
			}
		}
		for i := at; i+1 < len(words); i++ {
			kind, ok := kindOf[words[i]]
			if !ok || words[i+1] == "^$" || words[i+1] == "." {
				continue
			}
			names := testFuncNames(t, dirs, kind)
			for _, alt := range strings.Split(words[i+1], "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml: %s pattern %q: %v", words[i], alt, err)
					continue
				}
				checked++
				found := false
				for _, name := range names {
					found = found || re.MatchString(name)
				}
				if !found {
					t.Errorf("ci.yml: %s %q matches no %s function in %v — renamed or deleted?", words[i], alt, kind, dirs)
				}
			}
		}
	}
	if checked < 20 {
		t.Fatalf("checked only %d patterns — the ci.yml scan is broken", checked)
	}
}

// TestExperimentIDsResolve does for svrbench what TestCIPatternsResolve does
// for go test: svrbench exits 2 on an unknown -experiment, so a workflow step
// or doc naming a retired experiment fails only when someone runs it.  Every
// `-experiment <id>` in the workflow, README.md, ARCHITECTURE.md and the
// verify skill must be `all` or a registered experiment; a seeded unknown ID
// shows the scan reports one.
func TestExperimentIDsResolve(t *testing.T) {
	if bad := unknownExperiments("go run ./cmd/svrbench -experiment coldstart -scale 0.1"); len(bad) != 1 || bad[0] != "coldstart" {
		t.Fatalf("seeded unknown experiment: scan reported %q, want [coldstart]", bad)
	}
	for _, path := range []string{filepath.Join(".github", "workflows", "ci.yml"), "README.md", "ARCHITECTURE.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range unknownExperiments(string(data)) {
			t.Errorf("%s: -experiment %q is neither all nor a registered experiment (svrbench -list)", path, id)
		}
	}
}

// unknownExperiments returns the IDs of text's `-experiment <id>` arguments
// that svrbench would refuse.
func unknownExperiments(text string) []string {
	var bad []string
	for _, m := range regexp.MustCompile(`-experiment\s+([\w-]+)`).FindAllStringSubmatch(text, -1) {
		if _, ok := bench.Lookup(m[1]); !ok && m[1] != "all" {
			bad = append(bad, m[1])
		}
	}
	return bad
}

// shellWords splits a workflow line into words, keeping single-quoted
// strings whole and dropping the quotes and grouping parentheses.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	quoted, open := false, false
	flush := func() {
		if open {
			words = append(words, cur.String())
			cur.Reset()
			open = false
		}
	}
	for _, r := range line {
		switch {
		case r == '\'':
			quoted, open = !quoted, true
		case quoted:
			cur.WriteRune(r)
		case r == ' ' || r == '\t' || r == '(' || r == ')':
			flush()
		default:
			cur.WriteRune(r)
			open = true
		}
	}
	flush()
	return words
}

// testFuncNames lists the top-level functions whose name starts with kind
// in the _test.go files of the given package arguments ("./x/", "./x/...").
func testFuncNames(t *testing.T, dirs []string, kind string) []string {
	decl := regexp.MustCompile(`(?m)^func (` + kind + `\w*)\(`)
	var names []string
	for _, dir := range dirs {
		root, recursive := strings.CutSuffix(dir, "...")
		err := filepath.WalkDir(filepath.Clean(root), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if !recursive && path != filepath.Clean(root) {
					return fs.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range decl.FindAllSubmatch(src, -1) {
				names = append(names, string(m[1]))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("ci.yml names package %q: %v", dir, err)
		}
	}
	return names
}
