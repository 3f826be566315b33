package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// host identifies the machine and the code a run measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git commit of the checkout, or "none" when the tree
	// is not a git repository; SourceSHA256 identifies the source either
	// way (every .go, go.mod and .sh file, in path order).
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func describeHost(root string) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "none"}
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	h.SourceSHA256 = sourceDigest(root)
	return h
}

func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if ext := filepath.Ext(p); !d.IsDir() && (ext == ".go" || ext == ".mod" || ext == ".sh") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	sum := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(sum, "%s %d\n", rel, len(b))
		sum.Write(b)
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// childRun is one finished child process.
type childRun struct {
	wall   time.Duration
	stdout []byte
	stderr string
	// peakRSSMB is the child's peak resident set (rusage maxrss, the
	// same figure as VmHWM).
	peakRSSMB float64
}

// runChild runs bin with args to completion.
func runChild(bin string, args []string) (*childRun, error) {
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	werr := cmd.Run()
	cr := &childRun{wall: time.Since(start), stdout: stdout.Bytes(), stderr: stderr.String()}
	if cmd.ProcessState == nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), werr)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.peakRSSMB = float64(ru.Maxrss) / 1024
	}
	if werr != nil {
		return cr, fmt.Errorf("%s %s: %w\n%s", filepath.Base(bin), strings.Join(args, " "), werr, tail(cr.stderr))
	}
	return cr, nil
}

// tail returns the last few lines of s, for error messages.
func tail(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
