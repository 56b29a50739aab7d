package analysis

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var analyzerNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// FuzzAllowDirective checks the //lint:allow parser on arbitrary comment
// text: no input panics, a match names a well-formed analyzer with a
// non-blank reason, and the directive it describes parses back to the
// same analyzer and reason. The seeds are every comment in the fixtures
// that mentions lint:allow, plus malformed variants.
func FuzzAllowDirective(f *testing.F) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join("testdata", "src"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, "lint:allow") {
					f.Add(c.Text)
				}
			}
		}
		return nil
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		"//lint:allow simdet",
		"//lint:allow Simdet reason",
		"// lint:allow\thotpath\tbuffer preallocated at arm time ",
		"/* lint:allow mapiter reason */",
		"//lint:allow mapiter line one\nline two",
		"//lint:allowsimdet reason",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, comment string) {
		name, reason, ok := parseAllow(comment)
		if !ok {
			return
		}
		if !analyzerNameRE.MatchString(name) {
			t.Fatalf("parseAllow(%q) named analyzer %q", comment, name)
		}
		if strings.TrimSpace(reason) == "" {
			t.Fatalf("parseAllow(%q) gave a blank reason %q", comment, reason)
		}
		directive := "//lint:allow " + name + " " + reason
		name2, reason2, ok := parseAllow(directive)
		if !ok || name2 != name || reason2 != reason {
			t.Fatalf("parseAllow(%q) = %q, %q, %v; want %q, %q, true", directive, name2, reason2, ok, name, reason)
		}
	})
}
