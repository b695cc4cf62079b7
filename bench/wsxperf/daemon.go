package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"wstrust/internal/simclock"
)

// daemon is one wsxd child process.
type daemon struct {
	cmd   *exec.Cmd
	base  string // http://host:port
	setup time.Duration

	readers sync.WaitGroup // the stdout and stderr readers
	mu      sync.Mutex
	gcs     []gcEvent // guarded by mu
	tail    []string  // guarded by mu: last lines of output, for errors
	exited  bool
}

// gcEvent is one garbage collection the child reported under
// GODEBUG=gctrace=1, stamped with when the benchmark read it.
type gcEvent struct {
	at      time.Time
	pauseMs float64
}

// childEnv is the complete environment of a child process: nothing is
// inherited, so runs do not depend on the caller's shell.
func childEnv(gomaxprocs int, extra ...string) []string {
	return append([]string{"GOMAXPROCS=" + strconv.Itoa(gomaxprocs)}, extra...)
}

// startDaemon boots wsxd on dir and returns once /readyz answers 200; the
// time from exec to that answer is its set-up time.
func startDaemon(bin, dir string, w *serveWorkload, seed int64, gctrace bool) (*daemon, error) {
	args := append([]string{
		"-addr", "127.0.0.1:0", "-data", dir, "-seed", strconv.FormatInt(seed, 10),
		"-services", strconv.Itoa(w.services), "-mech", w.mech,
	}, wsxdFlags...)
	cmd := exec.Command(bin, args...)
	var extra []string
	if gctrace {
		extra = append(extra, "GODEBUG=gctrace=1")
	}
	// The daemon runs on one core, like the driver.
	cmd.Env = childEnv(1, extra...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd}
	// Collect the driver's own garbage first, so that its collector does
	// not run while the daemon boots and the load is offered.
	runtime.GC()
	clock := simclock.Wall()
	start := clock.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start wsxd: %w", err)
	}
	addr := make(chan string, 1)
	d.readers.Add(2)
	go d.read(stdout, func(line string) {
		if a, ok := strings.CutPrefix(line, "wsxd: listening on "); ok {
			a, _, _ = strings.Cut(a, " ")
			select {
			case addr <- a:
			default:
			}
		}
	})
	go d.read(stderr, func(line string) {
		if pause, ok := parseGCTrace(line); ok {
			d.mu.Lock()
			d.gcs = append(d.gcs, gcEvent{clock.Now(), pause})
			d.mu.Unlock()
		}
	})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-ctx.Done():
		d.kill()
		return nil, fmt.Errorf("wsxd did not report its address: %s", d.lastOutput())
	}
	for {
		if err := get(ctx, d.base+"/readyz"); err == nil {
			break
		} else if ctx.Err() != nil {
			d.kill()
			return nil, fmt.Errorf("wsxd not ready: %v: %s", err, d.lastOutput())
		}
		simclock.SleepWall(time.Millisecond)
	}
	d.setup = clock.Now().Sub(start)
	return d, nil
}

// read drains one output pipe line by line until the child exits.
func (d *daemon) read(r io.Reader, fn func(string)) {
	defer d.readers.Done()
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fn(line)
		d.mu.Lock()
		if d.tail = append(d.tail, line); len(d.tail) > 20 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
	}
}

func (d *daemon) lastOutput() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// gcBetween returns the collections reported in [from, to].
func (d *daemon) gcBetween(from, to time.Time) (cycles int, pauseMs float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, g := range d.gcs {
		if !g.at.Before(from) && !g.at.After(to) {
			cycles++
			pauseMs += g.pauseMs
		}
	}
	return cycles, pauseMs
}

func get(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	_, rerr := io.Copy(io.Discard, resp.Body)
	if err := resp.Body.Close(); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return rerr
}

// procStat samples the child's CPU time and disk writes so far.
func (d *daemon) procStat() (cpu time.Duration, writeBytes uint64, err error) {
	dir := fmt.Sprintf("/proc/%d/", d.cmd.Process.Pid)
	stat, err := os.ReadFile(dir + "stat")
	if err != nil {
		return 0, 0, err
	}
	if cpu, err = parseProcStatCPU(stat); err != nil {
		return 0, 0, err
	}
	raw, err := os.ReadFile(dir + "io")
	if err != nil {
		return 0, 0, err
	}
	writeBytes, err = parseWriteBytes(raw)
	return cpu, writeBytes, err
}

// peakRSS is the daemon's peak resident set so far, in MB.
func (d *daemon) peakRSS() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

// drain asks wsxd to shut down gracefully and waits for exit 0.
func (d *daemon) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/drain", nil)
	if err != nil {
		d.kill()
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.kill()
		return fmt.Errorf("drain wsxd: %w: %s", err, d.lastOutput())
	}
	if err := d.wait(); err != nil {
		return fmt.Errorf("wsxd exit: %w: %s", err, d.lastOutput())
	}
	return nil
}

func (d *daemon) wait() error {
	d.readers.Wait()
	d.exited = true
	return d.cmd.Wait()
}

// kill stops a daemon that is being abandoned and waits for it to exit.
func (d *daemon) kill() {
	if d.exited {
		return
	}
	if err := d.cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
		fmt.Fprintln(os.Stderr, "wsxperf: kill wsxd:", err)
	}
	if err := d.wait(); err != nil {
		fmt.Fprintln(os.Stderr, "wsxperf: abandoned wsxd:", err)
	}
}

// copyDir copies the regular files of src into dst, replacing whatever
// dst held.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, fs.FileMode(0o644)); err != nil {
			return err
		}
	}
	return nil
}
