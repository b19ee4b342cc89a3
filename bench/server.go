package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"time"
)

// serverPkg is the program serve_closed drives, built from the checkout
// the harness runs in.
const serverPkg = "pimdnn/cmd/upmem-serve"

// serverBin is where buildServer puts the upmem-serve binary.
func serverBin(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	return filepath.Join(abs, "upmem-serve"), err
}

// buildServer compiles upmem-serve into dir. Compilation is not part of
// setup_s.
func buildServer(dir string) error {
	bin, err := serverBin(dir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return err
	}
	out, err := exec.Command("go", "build", "-o", bin, serverPkg).CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build %s: %v\n%s", serverPkg, err, out)
	}
	return nil
}

// server is one running upmem-serve subprocess.
type server struct {
	cmd     *exec.Cmd
	base    string  // http://host:port
	startMS float64 // spawn until /healthz answered
	stderr  bytes.Buffer
	exited  chan struct{} // closed once Wait returned
	client  *http.Client
}

// live tracks running servers so a signal or a failing harness can stop
// every one of them before the process exits.
var live struct {
	sync.Mutex
	set map[*server]struct{}
}

func stopAllServers() {
	live.Lock()
	var all []*server
	for s := range live.set {
		all = append(all, s)
	}
	live.Unlock()
	for _, s := range all {
		s.stop()
	}
}

var boundAddr = regexp.MustCompile(`on http://(\S+)`)

const serverStartTimeout = 20 * time.Second

// startServer spawns bin on an ephemeral port, reads the bound address
// from its first stdout line, and polls /healthz until it answers.
func startServer(bin string, args ...string) (*server, error) {
	s := &server{
		cmd:    exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...),
		exited: make(chan struct{}),
		client: &http.Client{Timeout: 30 * time.Second},
	}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s.cmd.Stderr = &s.stderr
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	live.Lock()
	if live.set == nil {
		live.set = make(map[*server]struct{})
	}
	live.set[s] = struct{}{}
	live.Unlock()

	addr := make(chan string, 1)
	go func() {
		// Wait must not run before stdout is drained: it closes the pipe.
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if m := boundAddr.FindStringSubmatch(sc.Text()); m != nil && !sent {
				addr <- m[1]
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		_ = s.cmd.Wait()
		close(s.exited)
	}()

	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.exited:
		live.Lock()
		delete(live.set, s)
		live.Unlock()
		return nil, fmt.Errorf("upmem-serve exited before binding: %s", s.stderr.String())
	case <-time.After(serverStartTimeout):
		s.stop()
		return nil, fmt.Errorf("upmem-serve did not print its address within %v", serverStartTimeout)
	}
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-s.exited:
			s.stop()
			return nil, fmt.Errorf("upmem-serve exited during start-up: %s", s.stderr.String())
		default:
		}
		if time.Since(t0) > serverStartTimeout {
			s.stop()
			return nil, fmt.Errorf("upmem-serve /healthz not ready within %v", serverStartTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.startMS = float64(time.Since(t0)) / 1e6
	return s, nil
}

// stop asks the server to shut down (SIGTERM), kills it if it has not
// exited within five seconds, and returns once it is gone. Safe to call
// more than once.
func (s *server) stop() {
	live.Lock()
	_, running := live.set[s]
	delete(live.set, s)
	live.Unlock()
	if !running {
		return
	}
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}
