package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciPattern finds the test selections of a go test command line: the
// -run, -bench and -fuzz flags with their quoted or bare pattern.
var ciPattern = regexp.MustCompile(`-(run|bench|fuzz)[= ](?:'([^']*)'|"([^"]*)"|([^\s'"]+))`)

// testFunc finds the Test, Fuzz and Benchmark functions a test file
// declares.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)

// TestCIPatternsNameDeclaredTests: every alternative of every -run,
// -bench and -fuzz pattern in the CI workflow matches at least one
// Test, Fuzz or Benchmark function declared in the repository. A step
// whose pattern names a deleted or renamed test still passes while
// running nothing; this test fails instead. '^$' and 'xxx' select
// nothing on purpose and are exempt. Only the top level of a pattern
// (before its first '/') names functions; below it are subtests.
func TestCIPatternsNameDeclaredTests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var funcs []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) == 0 {
		t.Fatal("no test functions found")
	}
	checked := 0
	for _, m := range ciPattern.FindAllStringSubmatch(string(raw), -1) {
		pattern := m[2] + m[3] + m[4]
		if pattern == "^$" || pattern == "xxx" {
			continue
		}
		top, _, _ := strings.Cut(pattern, "/")
		for _, alt := range strings.Split(top, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("-%s alternative %q: %v", m[1], alt, err)
				continue
			}
			found := false
			for _, f := range funcs {
				if re.MatchString(f) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("-%s alternative %q matches no declared Test, Fuzz or Benchmark function", m[1], alt)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no -run, -bench or -fuzz pattern found in the CI workflow")
	}
}
