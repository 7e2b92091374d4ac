package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runstore"
)

// archive copies the harness's two-manifest test archive (vpr under orig
// and wth-wp-wec at 8 TUs) to a temp dir, since opening an archive may
// repair its index in place.
func archive(t *testing.T) string {
	t.Helper()
	src := filepath.Join("..", "..", "internal", "harness", "testdata", "fleet-archive")
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// simql runs the command in-process and returns its exit code and output.
func simql(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestList(t *testing.T) {
	root := archive(t)
	code, out, errs := simql("list", "-root", root)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "CFGHASH") {
		t.Fatalf("want a header and two manifests:\n%s", out)
	}
	for _, cfg := range []string{"orig", "wth-wp-wec"} {
		if !strings.Contains(out, " "+cfg+" ") {
			t.Errorf("list misses %s:\n%s", cfg, out)
		}
	}
	code, out, _ = simql("list", "-root", root, "orig")
	if code != 0 || strings.Count(strings.TrimSpace(out), "\n") != 1 {
		t.Errorf("selector orig: exit %d, want one manifest:\n%s", code, out)
	}
}

func TestShowDecodesAsManifests(t *testing.T) {
	code, out, errs := simql("show", "-root", archive(t), "wth-wp-wec")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	var ms []runstore.Manifest
	if err := json.Unmarshal([]byte(out), &ms); err != nil {
		t.Fatalf("show output is not a manifest list: %v\n%s", err, out)
	}
	if len(ms) != 1 || ms[0].Config != "wth-wp-wec" || ms[0].Bench != "vpr" || ms[0].Stats.Cycles == 0 {
		t.Fatalf("show decoded %+v", ms)
	}
}

func TestGrep(t *testing.T) {
	root := archive(t)
	code, out, _ := simql("grep", "-root", root, "vpr")
	if code != 0 || strings.Count(out, "vpr/") != 2 {
		t.Errorf("grep vpr: exit %d, want both manifests:\n%s", code, out)
	}
	code, out, errs := simql("grep", "-root", root, "mcf")
	if code != 1 || out != "" || !strings.Contains(errs, "no manifests match") {
		t.Errorf("grep mcf: exit %d, stdout %q, stderr %q; want 1 and a note", code, out, errs)
	}
}

func TestDiff(t *testing.T) {
	code, out, errs := simql("diff", "-root", archive(t), "-format", "json", "orig", "wth-wp-wec")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	var doc struct {
		Pairs   int                  `json:"pairs"`
		Metrics []runstore.DeltaStat `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("diff output is not JSON: %v\n%s", err, out)
	}
	if doc.Pairs != 1 || len(doc.Metrics) == 0 {
		t.Fatalf("diff: %d pairs, %d metrics", doc.Pairs, len(doc.Metrics))
	}
	for _, d := range doc.Metrics {
		if d.Metric == "speedup" && d.Mean <= 0 {
			t.Errorf("wth-wp-wec should be faster than orig on vpr: mean %g", d.Mean)
		}
	}
}

func TestExitCodes(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"frobnicate"}, 2},
		{nil, 2},
		{[]string{"-h"}, 0},
		{[]string{"list", "-h"}, 0},
		{[]string{"list", "-bogus"}, 2},
		{[]string{"diff", "-tol", "x"}, 2},
	} {
		code, out, _ := simql(c.args...)
		if code != c.want {
			t.Errorf("simql %q: exit %d, want %d", c.args, code, c.want)
		}
		if out != "" {
			t.Errorf("simql %q printed %q", c.args, out)
		}
	}
}
