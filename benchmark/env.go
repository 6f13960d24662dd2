package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// envBlock is the environment and provenance of a run: a number means
// nothing without the box and the commit it came from.
type envBlock struct {
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GitCommit  string             `json:"git_commit"`
	DataRoot   string             `json:"data_root"`
	DataFS     string             `json:"data_fs"`
	Workers    int                `json:"workers"`
	CC         string             `json:"cc"`
	Partition  string             `json:"partitioner"`
	FlushMS    float64            `json:"flush_interval_ms"`
	Conns      int                `json:"connections"`
	Flush      string             `json:"flush_policy"`
	OpenRates  map[string]float64 `json:"open_rates_txn_s"`
}

func captureEnv(dataRoot string) envBlock {
	e := envBlock{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitCommit: gitCommit(), DataRoot: dataRoot, DataFS: fsType(dataRoot),
		Workers: workers, CC: ccProtocol, Partition: partitioner,
		FlushMS: ms(flushInterval), Conns: connections, Flush: flushPolicy,
		OpenRates: map[string]float64{},
	}
	for _, s := range specs {
		e.OpenRates[s.Name] = s.OpenRate
	}
	return e
}

// gitCommit is HEAD's hash, or "unknown" outside a git checkout (the
// benchmark driver runs from an exported tree).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// resultsFile is what -out accumulates and `compare` reads: every run
// kept, so spreads can be computed.
type resultsFile struct {
	Runs []*runRecord `json:"runs"`
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func appendRun(path string, rec *runRecord) error {
	f, err := readResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		f = &resultsFile{}
	} else if err != nil {
		return err
	}
	f.Runs = append(f.Runs, rec)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
