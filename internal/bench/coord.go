package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// AgentClient is the coordinator's handle on one load agent.
type AgentClient struct {
	addr string
	nc   net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
}

// DialAgent connects to an agent's control listener.
func DialAgent(addr string) (*AgentClient, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bench: dial agent %s: %w", addr, err)
	}
	return &AgentClient{addr: addr, nc: nc, enc: json.NewEncoder(nc), dec: json.NewDecoder(nc)}, nil
}

// Addr returns the agent's control address.
func (a *AgentClient) Addr() string { return a.addr }

// Prepare ships the spec and waits for the agent to finish generation
// and dialing.
func (a *AgentClient) Prepare(spec Spec) error {
	if err := a.enc.Encode(ctrlRequest{Cmd: "prepare", Spec: &spec}); err != nil {
		return fmt.Errorf("bench: agent %s: send prepare: %w", a.addr, err)
	}
	var rep ctrlReply
	if err := a.dec.Decode(&rep); err != nil {
		return fmt.Errorf("bench: agent %s: prepare reply: %w", a.addr, err)
	}
	if !rep.OK {
		return fmt.Errorf("bench: agent %s: prepare: %s", a.addr, rep.Err)
	}
	return nil
}

// Start schedules the prepared run for the wall-clock instant at. It
// does not wait; Collect reads the completion reply.
func (a *AgentClient) Start(at time.Time) error {
	if err := a.enc.Encode(ctrlRequest{Cmd: "start", StartAtUnixNano: at.UnixNano()}); err != nil {
		return fmt.Errorf("bench: agent %s: send start: %w", a.addr, err)
	}
	return nil
}

// Collect blocks until the agent's run completes and returns its
// validated result. timeout of 0 waits forever.
func (a *AgentClient) Collect(timeout time.Duration) (Result, error) {
	if timeout > 0 {
		a.nc.SetReadDeadline(time.Now().Add(timeout))
		defer a.nc.SetReadDeadline(time.Time{})
	}
	var rep ctrlReply
	if err := a.dec.Decode(&rep); err != nil {
		return Result{}, fmt.Errorf("bench: agent %s: collect: %w", a.addr, err)
	}
	if !rep.OK || rep.Result == nil {
		return Result{}, fmt.Errorf("bench: agent %s: run failed: %s", a.addr, rep.Err)
	}
	if err := rep.Result.Validate(); err != nil {
		return Result{}, fmt.Errorf("bench: agent %s: %w", a.addr, err)
	}
	return *rep.Result, nil
}

// Stop aborts whatever the agent is doing (best effort, no reply).
func (a *AgentClient) Stop() {
	a.enc.Encode(ctrlRequest{Cmd: "stop"})
}

// Close drops the control connection (the agent cancels any run).
func (a *AgentClient) Close() { a.nc.Close() }

// Coordinate drives one synchronized run across the agents: prepare
// everywhere in parallel, start everyone at now+startDelay, collect
// every result. specs[i] goes to agents[i]. The startDelay must cover
// the slowest control round-trip so no agent hears "start" after the
// barrier instant; preparation cost is already off the barrier.
func Coordinate(agents []*AgentClient, specs []Spec, startDelay, collectTimeout time.Duration) ([]Result, error) {
	if len(agents) == 0 || len(agents) != len(specs) {
		return nil, fmt.Errorf("bench: coordinate: %d agents for %d specs", len(agents), len(specs))
	}
	if startDelay <= 0 {
		startDelay = 500 * time.Millisecond
	}
	errs := make([]error, len(agents))
	var wg sync.WaitGroup
	for i := range agents {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = agents[i].Prepare(specs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			stopAll(agents)
			return nil, fmt.Errorf("bench: coordinate: prepare agent %d: %w", i, err)
		}
	}
	at := time.Now().Add(startDelay)
	for i := range agents {
		if err := agents[i].Start(at); err != nil {
			stopAll(agents)
			return nil, err
		}
	}
	results := make([]Result, len(agents))
	for i := range agents {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = agents[i].Collect(collectTimeout)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			stopAll(agents)
			return nil, fmt.Errorf("bench: coordinate: %w", err)
		}
		if results[i].Agent == "" {
			results[i].Agent = agents[i].addr
		}
	}
	return results, nil
}

func stopAll(agents []*AgentClient) {
	for _, a := range agents {
		a.Stop()
	}
}

// SpawnLocalAgents launches n agent subprocesses (bin with args, which
// must put the process in agent mode on an ephemeral port), scans each
// stdout for the ListenBanner line, and dials the announced control
// addresses. The returned stop function tears everything down. This is
// how tskd-load -local-agents gets a multi-process load fleet on one
// box without external orchestration.
func SpawnLocalAgents(n int, bin string, args ...string) ([]*AgentClient, func(), error) {
	var (
		procs  []*exec.Cmd
		agents []*AgentClient
	)
	stop := func() {
		for _, a := range agents {
			a.Close()
		}
		for _, p := range procs {
			p.Process.Kill()
			p.Wait()
		}
	}
	for i := 0; i < n; i++ {
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			stop()
			return nil, nil, err
		}
		if err := cmd.Start(); err != nil {
			stop()
			return nil, nil, fmt.Errorf("bench: spawn agent: %w", err)
		}
		procs = append(procs, cmd)
		addr, err := scanListenBanner(out)
		if err != nil {
			stop()
			return nil, nil, fmt.Errorf("bench: agent %d: %w", i, err)
		}
		// Keep draining the subprocess stdout so its log writes never
		// block on a full pipe.
		go func() {
			sc := bufio.NewScanner(out)
			for sc.Scan() {
			}
		}()
		a, err := DialAgent(addr)
		if err != nil {
			stop()
			return nil, nil, err
		}
		agents = append(agents, a)
	}
	return agents, stop, nil
}

// scanListenBanner reads lines until the agent announces its address.
func scanListenBanner(out interface{ Read([]byte) (int, error) }) (string, error) {
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, ListenBanner) {
			return strings.TrimSpace(strings.TrimPrefix(line, ListenBanner)), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("agent exited before announcing listener: %w", err)
	}
	return "", fmt.Errorf("agent exited before announcing listener")
}
