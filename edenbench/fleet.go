package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/eden"
	"repro/internal/serve"
)

// proc is one launched serving process.
type proc struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	drained chan struct{} // closed once stdout is fully read
	url     string
}

// startProc launches this binary's serve subcommand and waits for the
// line announcing its listen address.
func startProc(args ...string) (*proc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, append([]string{"serve"}, args...)...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	p := &proc{cmd: cmd, stdin: stdin, drained: make(chan struct{})}
	lines := make(chan string, 1)
	go func() {
		defer close(p.drained)
		sc := bufio.NewScanner(stdout)
		first := true
		for sc.Scan() {
			if first {
				lines <- sc.Text()
				first = false
			}
		}
		if first {
			close(lines)
		}
	}()
	select {
	case line, ok := <-lines:
		if url, found := strings.CutPrefix(line, "LISTEN "); ok && found {
			p.url = url
			return p, nil
		}
		p.stop()
		return nil, fmt.Errorf("server %v exited before listening", args)
	case <-time.After(120 * time.Second):
		p.stop()
		return nil, fmt.Errorf("server %v did not start within 120s", args)
	}
}

// stop ends the process (SIGTERM, then SIGKILL after 5s) and waits for it.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	done := make(chan struct{})
	go func() {
		<-p.drained
		_ = p.cmd.Wait() // exit status after SIGTERM carries no information
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
	_ = p.stdin.Close()
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (p *proc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// fleet is one running serving topology: a standalone server, or K stage
// servers behind a dispatcher.
type fleet struct {
	front  string  // URL clients send predictions to
	model  string  // served model name
	procs  []*proc // every serving process, front last
	stages []string
	plan   cluster.Plan
}

// launchFleet starts the topology for artifact (already saved at path):
// one standalone server, or — with stages > 0 — the cluster.PlanFor cut
// into that many stage processes plus a dispatcher.
func launchFleet(dep *eden.Deployment, path, backend string, stages int) (*fleet, error) {
	f := &fleet{model: dep.ModelName}
	if stages == 0 {
		p, err := startProc("-role", "standalone", "-deployment", path, "-backend", backend)
		if err != nil {
			return nil, err
		}
		f.procs, f.front = []*proc{p}, p.url
		return f, f.waitHealthy()
	}
	plan, err := cluster.PlanFor(dep, cluster.PartitionConfig{Stages: stages})
	if err != nil {
		return nil, err
	}
	f.plan = plan
	// Stages start concurrently, as an orchestrator would launch them.
	stageProcs := make([]*proc, stages)
	errs := make([]error, stages)
	var wg sync.WaitGroup
	for k, r := range plan.Ranges {
		wg.Add(1)
		go func(k int, r [2]int) {
			defer wg.Done()
			stageProcs[k], errs[k] = startProc("-role", "stage", "-deployment", path, "-backend", backend,
				"-lo", strconv.Itoa(r[0]), "-hi", strconv.Itoa(r[1]),
				"-index", strconv.Itoa(k), "-count", strconv.Itoa(stages))
		}(k, r)
	}
	wg.Wait()
	for k, p := range stageProcs {
		if p != nil {
			f.procs = append(f.procs, p)
			f.stages = append(f.stages, p.url)
		} else if errs[k] != nil && err == nil {
			err = errs[k]
		}
	}
	if err != nil {
		f.stop()
		return nil, err
	}
	d, err := startProc("-role", "dispatcher", "-model", dep.ModelName, "-stages", strings.Join(f.stages, ";"))
	if err != nil {
		f.stop()
		return nil, err
	}
	f.procs, f.front = append(f.procs, d), d.url
	return f, f.waitHealthy()
}

// waitHealthy polls every process's /v1/healthz until each answers 200.
func (f *fleet) waitHealthy() error {
	deadline := time.Now().Add(60 * time.Second)
	for _, p := range f.procs {
		for {
			resp, err := controlClient.Get(p.url + "/v1/healthz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				f.stop()
				return fmt.Errorf("%s not healthy within 60s", p.url)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

// stop ends every process of the fleet, front first.
func (f *fleet) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].stop()
	}
}

// peakRSSMB sums VmHWM over the fleet's processes.
func (f *fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range f.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// servers lists the URLs of the processes running serve schedulers: the
// standalone server, or every stage.
func (f *fleet) servers() []string {
	if len(f.stages) > 0 {
		return f.stages
	}
	return []string{f.front}
}

// controlClient carries health and stats polls, apart from the load.
var controlClient = &http.Client{Timeout: 10 * time.Second}

// serverStats fetches one serve scheduler's /v1/stats entry for model.
func serverStats(url, model string) (serve.Snapshot, error) {
	resp, err := controlClient.Get(url + "/v1/stats")
	if err != nil {
		return serve.Snapshot{}, err
	}
	defer resp.Body.Close()
	var out map[string]serve.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return serve.Snapshot{}, fmt.Errorf("decode %s/v1/stats: %w", url, err)
	}
	snap, ok := out[model]
	if !ok {
		return serve.Snapshot{}, fmt.Errorf("%s/v1/stats has no model %s", url, model)
	}
	return snap, nil
}
