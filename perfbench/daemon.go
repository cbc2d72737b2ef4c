package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one headtalkd process started with its defaults.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	setup  time.Duration
	stderr *bytes.Buffer
	// logDone closes once the stderr pipe has been drained.
	logDone chan struct{}
}

// readyTimeout bounds enrollment plus listener start-up.
const readyTimeout = 150 * time.Second

// startDaemon execs headtalkd on a loopback port chosen by the kernel
// and waits for its "listening on" line. Set-up time runs from exec to
// that line, so it covers enrollment of both gates.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-metrics-every", "0")
	// The daemon must not outlive the benchmark, even when the
	// benchmark itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = io.Discard
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("headtalkd stderr: %w", err)
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting headtalkd: %w", err)
	}
	d := &daemon{cmd: cmd, stderr: &bytes.Buffer{}, logDone: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			if d.stderr.Len() < 1<<16 {
				d.stderr.WriteString(line + "\n")
			}
			const marker = "headtalkd: listening on "
			if i := strings.Index(line, marker); i >= 0 {
				rest := line[i+len(marker):]
				if j := strings.IndexByte(rest, ' '); j > 0 {
					rest = rest[:j]
				}
				select {
				case ready <- rest:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-ready:
		d.setup = time.Since(start)
		d.addr = addr
		return d, nil
	case <-d.logDone:
		_ = cmd.Wait()
		return nil, fmt.Errorf("headtalkd exited before listening:\n%s", d.stderr.String())
	case <-time.After(readyTimeout):
		d.kill()
		return nil, fmt.Errorf("headtalkd not ready after %v", readyTimeout)
	}
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading headtalkd status: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("no VmHWM in headtalkd status")
}

// stop asks headtalkd to drain and exit, killing it if it does not
// within the bound, and waits until it has ended.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-d.logDone
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("headtalkd exit: %w", err)
		}
		return nil
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return errors.New("headtalkd did not drain within 15s; killed")
	}
}

// kill ends the process without draining, for error paths.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.logDone
	_ = d.cmd.Wait()
}
