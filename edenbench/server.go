package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/compute"
	"repro/internal/eden"
	"repro/internal/parallel"
	"repro/internal/serve"
)

// serveMain is the serving process the benchmark launches: the shipped
// handlers (serve.NewHandler for standalone and stage roles,
// cluster.Dispatcher.Handler for the dispatcher) behind an http.Server that
// speaks HTTP/1.1 and cleartext HTTP/2. Scheduler settings are cmd/serve's
// defaults. It listens on a free loopback port, prints "LISTEN <url>" once
// the model is deployed, and exits on SIGTERM or when its stdin closes.
func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	role := fs.String("role", "standalone", "standalone, stage or dispatcher")
	artifact := fs.String("deployment", "", "deployment artifact (standalone and stage roles)")
	backendName := fs.String("backend", "gemm", "compute backend")
	lo := fs.Int("lo", 0, "stage role: first layer")
	hi := fs.Int("hi", 0, "stage role: end layer (exclusive)")
	index := fs.Int("index", 0, "stage role: stage position")
	count := fs.Int("count", 0, "stage role: stage count")
	model := fs.String("model", "", "dispatcher role: served model name")
	stages := fs.String("stages", "", `dispatcher role: stage URLs separated by ";"`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	parallel.SetWorkers(0)
	backend, err := compute.ByName(*backendName)
	if err != nil {
		return err
	}
	compute.SetDefault(backend)

	var handler http.Handler
	var closeAll func()
	switch *role {
	case "standalone", "stage":
		dep, err := eden.LoadDeploymentFile(*artifact)
		if err != nil {
			return err
		}
		s := serve.New(serve.Config{MaxBatch: 16})
		if *role == "stage" {
			slice, err := dep.Slice(*lo, *hi, *index, *count)
			if err != nil {
				return err
			}
			_, err = s.DeployStage(slice, serve.WithBackend(backend))
			if err != nil {
				return err
			}
		} else if _, err := s.Deploy(dep, serve.WithBackend(backend)); err != nil {
			return err
		}
		handler, closeAll = serve.NewHandler(s), s.Close
	case "dispatcher":
		d, err := cluster.NewDispatcher(cluster.DispatcherConfig{Model: *model, Stages: splitStages(*stages)})
		if err != nil {
			return err
		}
		handler, closeAll = d.Handler(), d.Close
	default:
		return fmt.Errorf("unknown role %q", *role)
	}
	defer closeAll()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: handler, Protocols: new(http.Protocols)}
	hs.Protocols.SetHTTP1(true)
	hs.Protocols.SetUnencryptedHTTP2(true)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Printf("LISTEN http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	parentGone := make(chan struct{})
	go func() {
		// The launcher holds our stdin open; EOF means it has stopped us or
		// died, so no server outlives the benchmark.
		_, _ = os.Stdin.Read(make([]byte, 1))
		close(parentGone)
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	case <-parentGone:
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = hs.Shutdown(shutdownCtx) // exiting either way; in-flight requests are the launcher's concern
	return nil
}

// splitStages parses the dispatcher's stage list: one URL per stage.
func splitStages(s string) [][]string {
	var out [][]string
	for _, u := range strings.Split(s, ";") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, []string{u})
		}
	}
	return out
}
