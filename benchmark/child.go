package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// buildServer compiles cmd/anonserver into dir. Build time is never part
// of a metric.
func buildServer(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "anonserver")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "policyanon/cmd/anonserver")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build policyanon/cmd/anonserver: %w\n%s", err, out)
	}
	return bin, nil
}

// child is the anonserver under test: a separate process started with
// its default flags, reached only over loopback HTTP.
type child struct {
	cmd    *exec.Cmd
	addr   string
	stderr *tailBuffer
	exited chan struct{}
}

// startChild execs the server on a free loopback port and waits until it
// answers its liveness probe. Cancelling ctx kills it.
func startChild(ctx context.Context, bin string, motion bool) (*child, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("find a free port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	args := []string{"-addr", addr, "-log-level", "warn"}
	if motion {
		args = append(args, "-motion")
	}
	ch := &child{
		cmd:    exec.CommandContext(ctx, bin, args...),
		addr:   addr,
		stderr: &tailBuffer{max: 8 << 10},
		exited: make(chan struct{}),
	}
	ch.cmd.Stderr = ch.stderr
	if err := ch.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		_ = ch.cmd.Wait() // the exit status of a killed server carries no news
		close(ch.exited)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if c, err := connect(addr); err == nil {
			c.close()
			return ch, nil
		}
		select {
		case <-ch.exited:
			return nil, fmt.Errorf("anonserver exited during start-up: %s", ch.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			ch.stop()
			return nil, fmt.Errorf("anonserver not live after 10s: %s", ch.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop kills the server and returns once it has exited and its port is
// released.
func (ch *child) stop() {
	_ = ch.cmd.Process.Kill() // already-exited is fine
	<-ch.exited
}

// peakRSSMB is the child's resident-set high-water mark.
func (ch *child) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", ch.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", ch.cmd.Process.Pid)
}

// tailBuffer keeps the last max bytes written to it: enough of the
// server's warn-level log to explain a failure.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf bytes.Buffer
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf.Write(p)
	if over := t.buf.Len() - t.max; over > 0 {
		t.buf.Next(over)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.String()
}
