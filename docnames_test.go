package fuzzybarrier_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docFiles are the documents that tell a reader which test, benchmark or
// fuzz target to run. CHANGES.md and ROADMAP.md are left out: they are
// history, and may name what a later change deleted.
var docFiles = []string{
	"DESIGN.md", "EXPERIMENTS.md", "README.md", "Makefile",
	".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml",
}

var (
	// testName matches a name a document or comment may cite: the
	// prefix, then an upper-case letter or digit, as `go test` requires.
	testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	// testFunc matches the declaration of a test function.
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// TestDocsNameOnlyLiveTests fails on a Test…, Benchmark… or Fuzz… name
// cited in docFiles or in any .go file that no _test.go function name
// starts with: a deleted or renamed test the text still tells a reader
// to run. A prefix is enough, as with -run, so a name may stand for a
// family of tests.
func TestDocsNameOnlyLiveTests(t *testing.T) {
	var funcs []string
	cited := map[string][]string{} // name -> the files citing it
	cite := func(path string, src []byte) {
		for _, name := range testName.FindAllString(string(src), -1) {
			if files := cited[name]; !slices.Contains(files, path) {
				cited[name] = append(files, path)
			}
		}
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, the benchmark's parent checkouts
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				funcs = append(funcs, string(m[1]))
			}
		}
		cite(path, src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range docFiles {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cite(path, src)
	}
	names := make([]string, 0, len(cited))
	for name := range cited {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		live := slices.ContainsFunc(funcs, func(f string) bool { return strings.HasPrefix(f, name) })
		if !live {
			t.Errorf("%s is cited in %s, but no test function's name starts with it", name, strings.Join(cited[name], ", "))
		}
	}
}
