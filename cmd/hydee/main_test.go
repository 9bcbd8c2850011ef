package main

import (
	"bytes"
	"strings"
	"testing"
)

// runCmd drives the command in process and returns its exit code, stdout
// and stderr.
func runCmd(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestUnknownSubcommandListsSubcommands(t *testing.T) {
	for _, args := range [][]string{{"bogus"}, nil} {
		code, _, stderr := runCmd(args...)
		if code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		for _, s := range subcommands {
			if !strings.Contains(stderr, s.name) {
				t.Errorf("%v: usage misses subcommand %q:\n%s", args, s.name, stderr)
			}
		}
	}
}

// TestBadBackendFailsBeforeAnyRun: an unknown name fails at flag-check
// time, before any run prints, and lists the valid names.
func TestBadBackendFailsBeforeAnyRun(t *testing.T) {
	cases := []struct {
		args []string
		want []string // valid names the error must list
	}{
		{[]string{"nas", "-net", "bogus"}, []string{"myrinet10g", "tcpgige", "ideal"}},
		{[]string{"cluster", "-net", "bogus"}, []string{"myrinet10g", "tcpgige", "ideal"}},
		{[]string{"netpipe", "-net", "bogus"}, []string{"myrinet10g", "tcpgige", "ideal"}},
		{[]string{"recover", "-net", "bogus"}, []string{"myrinet10g", "tcpgige", "ideal"}},
		{[]string{"recover", "-store", "bogus"}, []string{"mem", "sharded", "ec", "replica"}},
	}
	for _, tc := range cases {
		code, stdout, stderr := runCmd(tc.args...)
		if code == 0 || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q; want a failure before any output", tc.args, code, stdout)
		}
		for _, name := range tc.want {
			if !strings.Contains(stderr, name) {
				t.Errorf("%v: error misses %q: %s", tc.args, name, stderr)
			}
		}
	}
}

// TestClusterParallelismInvariant: the sweep's parallelism must not
// change a byte of its output.
func TestClusterParallelismInvariant(t *testing.T) {
	code1, out1, err1 := runCmd("cluster", "--np", "8", "--par", "1")
	code2, out2, err2 := runCmd("cluster", "--np", "8", "--par", "2")
	if code1 != 0 || code2 != 0 {
		t.Fatalf("exit %d/%d: %s %s", code1, code2, err1, err2)
	}
	if out1 == "" || out1 != out2 {
		t.Errorf("--par 1 and --par 2 differ:\n%s\nvs\n%s", out1, out2)
	}
}
