package photoloop_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsMatchTests keeps CI's focused test steps honest: every
// alternative of every `go test -run` pattern in the workflow must match
// a Test, Fuzz, Benchmark or Example func in the packages the command
// names. A renamed or deleted test otherwise turns its step into "no
// tests to run", which passes.
func TestCIRunPatternsMatchTests(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	runFlag := regexp.MustCompile(`-run\s+(?:'([^']*)'|"([^"]*)"|(\S+))`)
	checked := 0
	for i, line := range strings.Split(string(ci), "\n") {
		if !strings.Contains(line, "go test") {
			continue
		}
		m := runFlag.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		pattern := m[1] + m[2] + m[3]
		var names []string
		for _, pkg := range testPackages(t, line) {
			names = append(names, testFuncs(t, pkg)...)
		}
		// go test splits -run at slashes into one pattern per subtest
		// level; the first names the top-level funcs.
		top, _, _ := strings.Cut(pattern, "/")
		for _, alt := range alternatives(top) {
			if strings.Trim(alt, "^$") == "" {
				continue // '^$' runs nothing on purpose
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml:%d: -run alternative %q: %v", i+1, alt, err)
				continue
			}
			checked++
			if !matchesAny(re, names) {
				t.Errorf("ci.yml:%d: -run alternative %q matches no test in %s", i+1, alt, strings.Join(testPackages(t, line), " "))
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no go test -run patterns in ci.yml")
	}
}

// testPackages returns the package directories a go test command line
// names: ./x, ./x/... (every directory of this module below x) or .,
// which is also the default.
func testPackages(t *testing.T, line string) []string {
	var dirs []string
	for _, f := range strings.Fields(line) {
		if f != "." && !strings.HasPrefix(f, "./") {
			continue
		}
		root, recursive := strings.CutSuffix(f, "/...")
		if !recursive {
			dirs = append(dirs, f)
			continue
		}
		err := filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
			if err != nil || !e.IsDir() {
				return err
			}
			if path != root {
				_, nested := os.Stat(filepath.Join(path, "go.mod"))
				if name := e.Name(); strings.HasPrefix(name, ".") || name == "testdata" || nested == nil {
					return filepath.SkipDir
				}
			}
			dirs = append(dirs, path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(dirs) == 0 {
		dirs = []string{"."}
	}
	return dirs
}

var testFuncDecl = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)

// testFuncs returns the test, fuzz, benchmark and example funcs declared
// in dir's _test.go files.
func testFuncs(t *testing.T, dir string) []string {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFuncDecl.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
	}
	return names
}

// alternatives splits a regular expression at its top-level |.
func alternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i, c := range pattern {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, pattern[start:])
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
