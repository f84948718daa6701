package main

import (
	"bufio"
	"encoding/json"
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

// server is one impserve process serving HTTP over a fresh state dir.
type server struct {
	cmd  *exec.Cmd
	url  string
	dir  string
	done chan struct{}
}

// startServer execs impserve with default flags (one shard, fsync on,
// group commit 64 records / 500us) and returns once /readyz answers 200,
// with the time that took.
func startServer(bin, dir string) (*server, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(dir + ".log")
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	cmd := exec.Command(bin, "-dir", filepath.Join(dir, "state"), "-listen", "127.0.0.1:0")
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	s := &server{cmd: cmd, dir: dir, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "listening:"); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
			fmt.Fprintln(logf, line)
		}
		io.Copy(io.Discard, out)
		cmd.Wait()
		logf.Close()
		close(s.done)
	}()

	select {
	case a := <-addr:
		s.url = "http://" + a
	case <-s.done:
		return nil, 0, fmt.Errorf("impserve exited before listening (see %s.log)", dir)
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, 0, fmt.Errorf("impserve did not listen within 30s")
	}
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	s.stop()
	return nil, 0, fmt.Errorf("impserve not ready within 30s")
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func (s *server) peakRSSMB() (float64, error) { return vmHWM(s.cmd.Process.Pid) }

// cpuSeconds reads a process's user plus system CPU time from
// /proc/<pid>/stat (clock ticks of 1/100 s). Time the hypervisor gave to
// other guests is not in it.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the command name, which may contain spaces: state is
	// the first, utime the 12th and stime the 13th.
	f := strings.Fields(string(data[strings.LastIndexByte(string(data), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	var ticks float64
	for _, x := range f[11:13] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return ticks / 100, nil
}

func vmHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// state fetches /state into v.
func (s *server) state(v any) error {
	resp, err := http.Get(s.url + "/state")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/state: HTTP %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// stop drains the server with SIGTERM, kills it if the drain hangs, and
// waits until the process has ended.
func (s *server) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

// serverState is the part of /state the gates read.
type serverState struct {
	Tasks         int    `json:"tasks"`
	EventsApplied uint64 `json:"events_applied"`
	Admitted      uint64 `json:"admitted"`
	Rejected      uint64 `json:"rejected"`
	LoadShed      uint64 `json:"load_shed"`
	Commit        struct {
		Records uint64 `json:"records"`
		Syncs   uint64 `json:"syncs"`
	} `json:"commit"`
}
