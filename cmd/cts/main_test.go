package main

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/charlib"
	"repro/internal/tech"
	"repro/pkg/cts"
	"repro/pkg/ctsserver"
)

// TestRunBadInputs pins the failure contract: a missing or malformed input
// file (or any other bad flag combination) comes back as a single-line
// error — never a panic, a stack trace, or a confusing mid-run failure.
func TestRunBadInputs(t *testing.T) {
	dir := t.TempDir()
	writeFile := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{
			name:    "missing file",
			args:    []string{"-file", filepath.Join(dir, "nope.txt")},
			wantErr: "no such file",
		},
		{
			name:    "malformed sink list",
			args:    []string{"-file", writeFile("garbage.txt", "garbage line\n")},
			wantErr: `want "name x y [cap]"`,
		},
		{
			name:    "malformed ispd",
			args:    []string{"-file", writeFile("bad.ispd", "num sink 2\nbadline\n")},
			wantErr: `want "id x y cap"`,
		},
		{
			name:    "empty file",
			args:    []string{"-file", writeFile("empty.txt", "# nothing here\n")},
			wantErr: "no sinks",
		},
		{
			name:    "non-finite coordinate",
			args:    []string{"-file", writeFile("nan.txt", "a NaN 10\nb 100 100\n"), "-analytic", "-no-verify"},
			wantErr: "non-finite",
		},
		{
			name:    "duplicate sink names",
			args:    []string{"-file", writeFile("dup.txt", "a 0 0\na 5 5\n"), "-analytic", "-no-verify"},
			wantErr: "duplicate sink name",
		},
		{
			name:    "unknown benchmark",
			args:    []string{"-bench", "r99"},
			wantErr: "unknown benchmark",
		},
		{
			name:    "malformed library",
			args:    []string{"-bench", "r1", "-max-sinks", "4", "-lib", writeFile("bad.lib", "not json")},
			wantErr: "charlib",
		},
		{
			name:    "unknown correction",
			args:    []string{"-bench", "r1", "-correction", "sideways"},
			wantErr: "unknown correction mode",
		},
		{
			name:    "unknown topology",
			args:    []string{"-bench", "r1", "-topology", "spiral"},
			wantErr: "unknown topology strategy",
		},
		{
			name:    "unreachable server",
			args:    []string{"-bench", "r1", "-max-sinks", "4", "-server", "http://127.0.0.1:1"},
			wantErr: "connection refused",
		},
		{
			name:    "priority without server",
			args:    []string{"-bench", "r1", "-max-sinks", "4", "-priority", "high"},
			wantErr: "-priority/-deadline only apply with -server",
		},
		{
			name:    "deadline without server",
			args:    []string{"-bench", "r1", "-max-sinks", "4", "-deadline", "2026-01-01T00:00:00Z"},
			wantErr: "-priority/-deadline only apply with -server",
		},
		{
			name:    "unknown priority",
			args:    []string{"-bench", "r1", "-max-sinks", "4", "-server", "http://127.0.0.1:1", "-priority", "urgent"},
			wantErr: "unknown priority",
		},
		{
			name:    "malformed deadline",
			args:    []string{"-bench", "r1", "-max-sinks", "4", "-server", "http://127.0.0.1:1", "-deadline", "2026-07-29 12:00"},
			wantErr: "parsing -deadline",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(context.Background(), tc.args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.wantErr)
			}
			msg := err.Error()
			if !strings.Contains(msg, tc.wantErr) {
				t.Errorf("error %q does not contain %q", msg, tc.wantErr)
			}
			if strings.Contains(msg, "\n") {
				t.Errorf("error is not a single line: %q", msg)
			}
			for _, marker := range []string{"panic", "goroutine", "runtime error"} {
				if strings.Contains(msg, marker) {
					t.Errorf("error looks like a crash (%q): %q", marker, msg)
				}
			}
		})
	}
}

// TestErrorLinePrefixesOnce pins the one "cts: " prefix of main's error
// line, for a pkg/cts error that already carries it and for a local one.
func TestErrorLinePrefixesOnce(t *testing.T) {
	tt := tech.Default()
	_, libErr := cts.New(tt, cts.WithLibrary(charlib.NewAnalytic(tt)), cts.WithSlewLimit(45))
	localErr := run(context.Background(), []string{"-bench", "r1", "-correction", "sideways"}, io.Discard, io.Discard)
	for _, tc := range []struct {
		err  error
		want string
	}{
		{libErr, "cts: slew limit not met: "},
		{localErr, "cts: unknown correction mode "},
	} {
		if tc.err == nil {
			t.Fatalf("no error to print for %q", tc.want)
		}
		if got := errorLine(tc.err); !strings.HasPrefix(got, tc.want) {
			t.Errorf("errorLine(%q) = %q, want prefix %q", tc.err, got, tc.want)
		}
	}
}

// TestRunServerMode submits through a real ctsserver instance and checks
// the printed JobStatus JSON, including the cacheHit marker flipping on an
// identical resubmission.
func TestRunServerMode(t *testing.T) {
	tt := tech.Default()
	srv, err := ctsserver.New(ctsserver.Options{Tech: tt, Library: charlib.NewAnalytic(tt)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	args := []string{"-bench", "r1", "-max-sinks", "8", "-no-verify", "-progress",
		"-priority", "high", "-deadline", "2999-01-01T00:00:00Z", "-server", ts.URL}
	var first, second, stderr bytes.Buffer
	if err := run(context.Background(), args, &first, &stderr); err != nil {
		t.Fatalf("first remote run: %v (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(first.String(), `"cacheHit": false`) {
		t.Errorf("first run should miss the cache:\n%s", first.String())
	}
	if err := run(context.Background(), args, &second, &stderr); err != nil {
		t.Fatalf("second remote run: %v", err)
	}
	if !strings.Contains(second.String(), `"cacheHit": true`) {
		t.Errorf("identical resubmission should hit the cache:\n%s", second.String())
	}
	if !strings.Contains(second.String(), `"state": "done"`) {
		t.Errorf("remote run did not finish done:\n%s", second.String())
	}
	if !strings.Contains(second.String(), `"priority": "high"`) {
		t.Errorf("-priority did not reach the wire:\n%s", second.String())
	}
}

// TestRunLocalSmoke keeps the happy path honest: a tiny analytic run
// succeeds and reports the synthesis summary.
func TestRunLocalSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(),
		[]string{"-bench", "r1", "-max-sinks", "8", "-analytic", "-no-verify"},
		&stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stdout.String(), "synthesis:") {
		t.Errorf("stdout missing synthesis summary:\n%s", stdout.String())
	}
}
