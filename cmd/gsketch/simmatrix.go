package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"

	"graphsketch/internal/service"
	"graphsketch/internal/stream"
)

// matrixOpts is what the sims (cluster, serve, replica, scrub) share:
// the stream's shape and the seed sweep.
type matrixOpts struct {
	N        int
	P        float64
	Churn    int
	Batch    int
	Seeds    int
	BaseSeed uint64
}

func (o matrixOpts) bundleConfig() service.BundleConfig {
	return service.BundleConfig{N: o.N, K: 4, Eps: 1.0, SpannerK: 2, Seed: o.BaseSeed}
}

// runMatrix is the loop all four sims are. Per seed: the
// seeded stream, its oracle (the payload of one bundle fed the whole stream,
// uninterrupted), and round's rows against them. Then report's JSON, indented,
// on out — and only after it is printed, gate on every row, so a failing run
// still leaves its evidence. The first error is the CI verdict.
func runMatrix[Row any](o matrixOpts, out io.Writer,
	round func(st *stream.Stream, seed uint64, want []byte) ([]Row, error),
	report func(updates int, rows []Row) any,
	gate func(Row) error,
) error {
	var rows []Row
	updates := 0
	for i := 0; i < o.Seeds; i++ {
		seed := o.BaseSeed + uint64(i)
		st := stream.GNP(o.N, o.P, seed).WithChurn(o.Churn, seed^0x5eed)
		updates = len(st.Updates)
		ref := service.NewBundle(o.bundleConfig())
		ref.UpdateBatch(st.Updates)
		want, err := ref.MarshalBinaryCompact()
		if err != nil {
			return err
		}
		got, err := round(st, seed, want)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		rows = append(rows, got...)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report(updates, rows)); err != nil {
		return err
	}
	for _, row := range rows {
		if err := gate(row); err != nil {
			return err
		}
	}
	return nil
}

// serveChild is one spawned `gsketch serve` process.
type serveChild struct {
	cmd  *exec.Cmd
	addr string
}

// spawnServe starts the current binary as a serve child on dir — with extra
// appended to the sims' common flags — and waits for its ready line.
func spawnServe(dir string, opts serveSimOpts, extra ...string) (*serveChild, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "serve",
		"-addr=127.0.0.1:0",
		"-dir", dir,
		"-fsync", "interval", "-fsync-every", "16",
		"-snapshot-every", fmt.Sprint(opts.SnapshotEvery),
		"-epoch-every", "128",
		"-n", fmt.Sprint(opts.N), "-k", "4", "-eps", "1.0", "-spanner-k", "2",
		"-seed", fmt.Sprint(opts.BaseSeed),
	)
	cmd.Args = append(cmd.Args, extra...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(stdout).ReadBytes('\n')
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("serve child died before ready line: %w", err)
	}
	var ready struct {
		Addr string `json:"addr"`
	}
	if err := json.Unmarshal(line, &ready); err != nil || ready.Addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("bad ready line %q: %v", bytes.TrimSpace(line), err)
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained
	return &serveChild{cmd: cmd, addr: ready.Addr}, nil
}

func (c *serveChild) client() *service.Client {
	return &service.Client{Base: "http://" + c.addr}
}

// sigkill delivers the real thing and reaps the child.
func (c *serveChild) sigkill() {
	c.cmd.Process.Kill()
	c.cmd.Wait()
}
