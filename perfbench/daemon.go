package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one ecrpqd process listening on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has been waited for
	err  error         // exit status, valid after done
}

// startDaemon execs ecrpqd on an ephemeral loopback port and returns
// once it listens. Its stderr goes to logPath.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The daemon dies with the benchmark even if the benchmark is killed
	// outright and cannot stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if rest, ok := strings.CutPrefix(line, "ecrpqd: serving on "); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					select {
					case addr <- f[0]:
					default:
					}
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // a scanner error leaves the pipe to drain
		d.err = cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("ecrpqd exited before listening (%v); see %s", d.err, logPath)
	case <-time.After(90 * time.Second):
		d.kill()
		return nil, fmt.Errorf("ecrpqd did not listen within 90s; see %s", logPath)
	}
}

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy(ctx context.Context) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("ecrpqd not healthy: %w", ctx.Err())
		case <-d.done:
			return fmt.Errorf("ecrpqd exited: %v", d.err)
		case <-time.After(time.Millisecond):
		}
	}
}

// kill sends SIGKILL and waits for the process to be gone.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only if the process already exited
	<-d.done
}

// stop drains the daemon with SIGTERM, as an operator would, and
// reports a non-zero exit; it falls back to SIGKILL after 30 s.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-d.done:
		return d.err
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("ecrpqd did not drain within 30s")
	}
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// copyTree byte-copies the regular files of src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
