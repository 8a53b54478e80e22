package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// davd is one child server process: the shipped binary with its
// shipped defaults, only the address and the store root set.
type davd struct {
	cmd    *exec.Cmd
	url    string
	root   string
	stderr *os.File
	args   []string
}

// startDavd execs bin over a fresh store root in dir and waits until it
// answers /readyz. With pinned set, the child is forked from a thread
// already restricted to the server CPUs, so it never runs beside the
// load generator and sizes its GOMAXPROCS from the server set.
func startDavd(bin, dir string, server, client cpuSet, pinned bool) (*davd, error) {
	root := filepath.Join(dir, "root")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	// davd logs one line per request to stderr; it goes to a file on the
	// same filesystem as the store so the log costs what it costs in
	// production without adding the sandbox disk to the measurement.
	stderr, err := os.Create(filepath.Join(dir, "davd.log"))
	if err != nil {
		return nil, err
	}
	d := &davd{root: root, stderr: stderr, args: []string{"-addr", "127.0.0.1:0", "-root", root}}
	d.cmd = exec.Command(bin, d.args...)
	d.cmd.Stderr = stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		stderr.Close()
		return nil, err
	}
	if pinned {
		runtime.LockOSThread()
		err = setAffinity(0, server)
	}
	if err == nil {
		err = d.cmd.Start()
	}
	if pinned {
		if rerr := setAffinity(0, client); err == nil {
			err = rerr
		}
		runtime.UnlockOSThread()
	}
	if err != nil {
		stderr.Close()
		return nil, fmt.Errorf("start davd: %w", err)
	}
	if err := d.awaitReady(stdout); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// awaitReady takes the bound address from davd's "serving ... on
// http://ADDR" line, then polls /readyz on one kept-alive connection:
// recovery runs in the background after the listener binds, and a
// mutation sent before it finishes would be answered 503. davd ships
// with a 100-connections-per-minute accept limit, so readiness costs
// one connection, not one per poll.
func (d *davd) awaitReady(stdout io.Reader) error {
	line := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if i := strings.Index(sc.Text(), "http://"); i >= 0 {
				line <- strings.TrimSpace(sc.Text()[i:])
				break
			}
		}
		close(line)
		io.Copy(io.Discard, stdout)
	}()
	select {
	case url, ok := <-line:
		if !ok {
			return fmt.Errorf("davd exited before announcing its address (see %s)", d.stderr.Name())
		}
		d.url = url
	case <-time.After(10 * time.Second):
		return fmt.Errorf("davd did not announce its address within 10s")
	}
	probe := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer probe.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := probe.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("davd not ready within 10s (last error: %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop ends davd with SIGTERM (its graceful drain) and waits for it;
// a drain that outlives its 15 s grace is killed.
func (d *davd) stop() error {
	defer d.stderr.Close()
	if d.cmd.Process == nil {
		return nil
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("davd ignored SIGTERM; killed")
	}
}
