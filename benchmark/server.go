package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// This file drives reghd-serve: starting and stopping the process, and a
// minimal HTTP/1.1 client over one keep-alive connection.

// server is one running reghd-serve process.
type server struct {
	cmd  *exec.Cmd
	addr string
	// drained closes when the stderr reader has seen the process's end;
	// reader tracks that goroutine's lifetime.
	drained chan struct{}
	reader  sync.WaitGroup
	mu      sync.Mutex
	log     []string // last lines of the server's log, for diagnostics
}

// startServer runs bin with args (which must include -addr host:0) and
// waits for the address it logs. The process is killed if the benchmark
// dies first.
func startServer(ctx context.Context, bin string, args ...string) (*server, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("reghd-serve: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("reghd-serve: %w", err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	addrs := make(chan string, 1)
	s.reader.Add(1)
	go s.readLog(stderr, addrs)
	select {
	case s.addr = <-addrs:
		return s, nil
	case <-s.drained:
		err = errors.New("exited before serving")
	case <-time.After(60 * time.Second):
		err = errors.New("no listen address after 60s")
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.stop()
	return nil, fmt.Errorf("reghd-serve: %w; log: %s", err, s.lastLog())
}

// readLog drains the server's stderr until the process ends, keeping the
// last lines and sending the listen address once.
func (s *server) readLog(r io.Reader, addrs chan<- string) {
	defer s.reader.Done()
	defer close(s.drained)
	sc := bufio.NewScanner(r)
	const marker = "serving on http://"
	for sc.Scan() {
		line := sc.Text()
		s.mu.Lock()
		s.log = append(s.log, line)
		if len(s.log) > 20 {
			s.log = s.log[1:]
		}
		s.mu.Unlock()
		if i := strings.Index(line, marker); i >= 0 && addrs != nil {
			addr, _, _ := strings.Cut(line[i+len(marker):], " ")
			addrs <- addr
			addrs = nil
		}
	}
}

func (s *server) lastLog() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.log, " | ")
}

// stop kills the process and waits until it and the log reader have ended.
// Safe to call more than once.
func (s *server) stop() {
	if s == nil || s.cmd.ProcessState != nil {
		return
	}
	_ = s.cmd.Process.Kill() // fails only if it already exited; Wait reaps either way
	s.reader.Wait()
	_ = s.cmd.Wait() // a killed process reports "signal: killed"
}

// peakRSSMiB returns the process's peak resident set (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak rss: no VmHWM line")
}

// conn is one keep-alive HTTP/1.1 connection over a blocking socket: the
// calling thread sleeps in read(2) until the response arrives and wakes
// directly, with no hand-off through Go's network poller, so the client
// adds as small and as steady a delay as it can. Requests are pre-rendered
// bytes, so a request costs one write and one response parse.
type conn struct {
	addr string
	fd   int // -1 while not connected
	br   *bufio.Reader
}

func newConn(addr string) *conn { return &conn{addr: addr, fd: -1} }

// do sends one request and returns the response status and body. A
// transport error drops the connection; the next call redials.
func (c *conn) do(req []byte) (int, []byte, error) {
	if c.fd < 0 {
		if err := c.dial(); err != nil {
			return 0, nil, err
		}
	}
	status, body, err := c.roundTrip(req)
	if err != nil {
		c.close()
	}
	return status, body, err
}

// dial connects to c.addr, an IPv4 host:port.
func (c *conn) dial() error {
	host, port, err := net.SplitHostPort(c.addr)
	if err != nil {
		return err
	}
	ip := net.ParseIP(host).To4()
	p, err := strconv.Atoi(port)
	if ip == nil || err != nil {
		return fmt.Errorf("dial %s: not an IPv4 host:port", c.addr)
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return fmt.Errorf("dial %s: %w", c.addr, err)
	}
	sa := &syscall.SockaddrInet4{Port: p}
	copy(sa.Addr[:], ip)
	if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1); err != nil {
		syscall.Close(fd)
		return fmt.Errorf("dial %s: %w", c.addr, err)
	}
	if err := syscall.Connect(fd, sa); err != nil {
		syscall.Close(fd)
		return fmt.Errorf("dial %s: %w", c.addr, err)
	}
	c.fd, c.br = fd, bufio.NewReader(fdReader(fd))
	return nil
}

func (c *conn) roundTrip(req []byte) (int, []byte, error) {
	for b := req; len(b) > 0; {
		n, err := syscall.Write(c.fd, b)
		if errors.Is(err, syscall.EINTR) {
			continue
		}
		if err != nil {
			return 0, nil, err
		}
		b = b[n:]
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

func (c *conn) close() {
	if c.fd >= 0 {
		syscall.Close(c.fd)
		c.fd, c.br = -1, nil
	}
}

// fdReader reads a blocking socket.
type fdReader int

func (f fdReader) Read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(int(f), p)
		switch {
		case errors.Is(err, syscall.EINTR):
			continue
		case err != nil:
			return 0, err
		case n == 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

// postRequest renders a POST with a JSON body.
func postRequest(path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))
	b.Write(body)
	return b.Bytes()
}

// getRequest renders a GET.
func getRequest(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

// getJSON fetches path and decodes the JSON response into v.
func (c *conn) getJSON(path string, v any) error {
	status, body, err := c.do(getRequest(path))
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// waitHealthy polls /healthz until it answers 200.
func (c *conn) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, _, err := c.do(getRequest("/healthz"))
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("status %d", status)
			}
			return fmt.Errorf("/healthz not ready after 30s: %w", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// serverStats is what the benchmark reads from a running reghd-serve: the
// registry counters on /models and the Go runtime's memstats on /metrics.
type serverStats struct {
	Loads, LoadDedup, Evictions, Routed uint64
	PauseTotalNs, NumGC, TotalAlloc     uint64
}

func (c *conn) stats() (serverStats, error) {
	var models struct {
		Metrics struct {
			Loads     uint64 `json:"loads"`
			LoadDedup uint64 `json:"load_dedup"`
			Evictions uint64 `json:"evictions"`
			Routed    uint64 `json:"routed"`
		} `json:"metrics"`
	}
	if err := c.getJSON("/models", &models); err != nil {
		return serverStats{}, err
	}
	var vars struct {
		MemStats struct {
			PauseTotalNs uint64
			NumGC        uint64
			TotalAlloc   uint64
		} `json:"memstats"`
	}
	if err := c.getJSON("/metrics", &vars); err != nil {
		return serverStats{}, err
	}
	m := models.Metrics
	return serverStats{
		Loads: m.Loads, LoadDedup: m.LoadDedup, Evictions: m.Evictions, Routed: m.Routed,
		PauseTotalNs: vars.MemStats.PauseTotalNs, NumGC: vars.MemStats.NumGC, TotalAlloc: vars.MemStats.TotalAlloc,
	}, nil
}

// sub returns the counter increments from a to s.
func (s serverStats) sub(a serverStats) serverStats {
	return serverStats{
		Loads: s.Loads - a.Loads, LoadDedup: s.LoadDedup - a.LoadDedup,
		Evictions: s.Evictions - a.Evictions, Routed: s.Routed - a.Routed,
		PauseTotalNs: s.PauseTotalNs - a.PauseTotalNs, NumGC: s.NumGC - a.NumGC,
		TotalAlloc: s.TotalAlloc - a.TotalAlloc,
	}
}
