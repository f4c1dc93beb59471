package vroom_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// ciLine is one line of a CI `run:` script, with its line number in ci.yml.
type ciLine struct {
	n    int
	text string
}

// ciStep is one step of ci.yml: its shell and its run script.
type ciStep struct {
	shell string
	run   []ciLine
}

// readCI reads the steps of .github/workflows/ci.yml, and the workflow's
// default shell, with a line reader that knows just enough YAML for it.
func readCI(t *testing.T) (steps []*ciStep, defaultShell string) {
	t.Helper()
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	indentOf := func(s string) int { return len(s) - len(strings.TrimLeft(s, " ")) }
	var (
		cur       *ciStep // the list item being read
		curIndent int     // the indent of cur's keys
		path      []string
		indents   []int
	)
	for i := 0; i < len(lines); i++ {
		body := strings.TrimSpace(lines[i])
		if body == "" || body[0] == '#' {
			continue
		}
		indent := indentOf(lines[i])
		if strings.HasPrefix(body, "- ") {
			indent += 2
			body = body[2:]
			cur, curIndent = &ciStep{}, indent
			steps = append(steps, cur)
		} else if cur != nil && indent < curIndent {
			cur = nil
		}
		for len(indents) > 0 && indents[len(indents)-1] >= indent {
			path, indents = path[:len(path)-1], indents[:len(indents)-1]
		}
		key, val, _ := strings.Cut(body, ":")
		val = strings.TrimSpace(val)
		path, indents = append(path, key), append(indents, indent)
		inStep := cur != nil && indent == curIndent
		switch {
		case key == "shell" && strings.Join(path, ".") == "defaults.run.shell":
			defaultShell = val
		case key == "shell" && inStep:
			cur.shell = val
		case key == "shell":
			t.Errorf("ci.yml:%d: a shell set outside the workflow defaults and the steps, which this check does not read", i+1)
		case key == "run" && inStep && (strings.HasPrefix(val, "|") || strings.HasPrefix(val, ">")):
			for i+1 < len(lines) && (strings.TrimSpace(lines[i+1]) == "" || indentOf(lines[i+1]) > indent) {
				i++
				cur.run = append(cur.run, ciLine{i + 1, lines[i]})
			}
		case key == "run" && inStep:
			cur.run = append(cur.run, ciLine{i + 1, val})
		}
	}
	return steps, defaultShell
}

// TestCIPipesKeepExitStatus fails on a piped command in a CI `run:` step
// whose shell lacks pipefail: there `cmd | tee log` reports tee's status, so
// a failing cmd passes its gate. The workflow's `defaults: run: shell: bash`,
// or a step's own `shell: bash`, adds `-o pipefail`; a `set -o pipefail` in
// a script covers the lines after it.
func TestCIPipesKeepExitStatus(t *testing.T) {
	steps, defaultShell := readCI(t)
	pipefail := regexp.MustCompile(`\bset\s+-[a-z]*o\s+pipefail\b`)
	var scripts int
	for _, s := range steps {
		if len(s.run) == 0 {
			continue
		}
		scripts++
		covered := s.shell == "bash" || s.shell == "" && defaultShell == "bash"
		for _, l := range s.run {
			covered = covered || pipefail.MatchString(l.text)
			if !covered && hasPipe(l.text) {
				t.Errorf("ci.yml:%d: %q pipes without pipefail, so the step reports the last command's status", l.n, strings.TrimSpace(l.text))
			}
		}
	}
	if scripts == 0 {
		t.Fatal("read no run: steps from ci.yml")
	}
}

// TestCIFlagsExist fails on a flag that CI passes to a command of this
// module but the command does not define: the binary would exit 2 on it. A
// command is a `./vroom-*` binary or `go run ./cmd/vroom-*`; its flags are
// the names of the flag.X("name", ...) calls in its package.
func TestCIFlagsExist(t *testing.T) {
	steps, _ := readCI(t)
	invocation := regexp.MustCompile(`(?:^|[\s;&|(])(?:\./|go run \./cmd/)(vroom-[a-z]+)\b([^|;&>]*)`)
	flagArg := regexp.MustCompile(`(?:^|\s)--?([A-Za-z0-9][-A-Za-z0-9_.]*)`)
	defined := map[string]map[string]bool{}
	checked := 0
	for _, st := range steps {
		for i := 0; i < len(st.run); i++ {
			n, cmd := st.run[i].n, strings.TrimSpace(st.run[i].text)
			for strings.HasSuffix(cmd, `\`) && i+1 < len(st.run) {
				i++
				cmd = strings.TrimSuffix(cmd, `\`) + " " + strings.TrimSpace(st.run[i].text)
			}
			for _, m := range invocation.FindAllStringSubmatch(cmd, -1) {
				name, args := m[1], m[2]
				if defined[name] == nil {
					defined[name] = cmdFlags(t, name)
				}
				for _, f := range flagArg.FindAllStringSubmatch(args, -1) {
					checked++
					if !defined[name][f[1]] {
						t.Errorf("ci.yml:%d: %s defines no flag -%s", n, name, f[1])
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no flags passed to ./vroom-* commands in ci.yml")
	}
	t.Logf("checked %d flags on %d commands", checked, len(defined))
}

// cmdFlags returns the flag names cmd/<name> defines: the string literal
// first argument of each flag.X call in its non-test files.
func cmdFlags(t *testing.T, name string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("cmd", name, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("ci.yml runs %s, but cmd/%s has no Go files (%v)", name, name, err)
	}
	flags := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if v, err := strconv.Unquote(lit.Value); err == nil {
					flags[v] = true
				}
			}
			return true
		})
	}
	return flags
}

// hasPipe reports whether a shell line pipes: a | outside quotes and
// comments that is not half of ||.
func hasPipe(s string) bool {
	var quote byte
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '#' && (i == 0 || s[i-1] == ' '):
			return false
		case c == '|' && i+1 < len(s) && s[i+1] == '|':
			i++
		case c == '|':
			return true
		}
	}
	return false
}
