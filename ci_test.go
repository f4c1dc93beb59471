package vroom_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestCIPipesKeepExitStatus fails on a piped command in a CI `run:` step
// whose shell lacks pipefail: there `cmd | tee log` reports tee's status, so
// a failing cmd passes its gate. The workflow's `defaults: run: shell: bash`,
// or a step's own `shell: bash`, adds `-o pipefail`; a `set -o pipefail` in
// a script covers the lines after it.
func TestCIPipesKeepExitStatus(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	type line struct {
		n    int
		text string
	}
	type step struct {
		shell string
		run   []line
	}
	lines := strings.Split(string(data), "\n")
	indentOf := func(s string) int { return len(s) - len(strings.TrimLeft(s, " ")) }
	var (
		steps        []*step
		cur          *step // the list item being read
		curIndent    int   // the indent of cur's keys
		path         []string
		indents      []int
		defaultShell string
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
			cur, curIndent = &step{}, indent
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
				cur.run = append(cur.run, line{i + 1, lines[i]})
			}
		case key == "run" && inStep:
			cur.run = append(cur.run, line{i + 1, val})
		}
	}

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
