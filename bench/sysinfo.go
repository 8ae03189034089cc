package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// What the benchmark reads from the operating system: CPU time and
// context switches (getrusage), loopback traffic (/proc/net/dev), steal
// time (/proc/stat) and peak resident memory (/proc/self/status).

type rusage struct {
	cpu           time.Duration // user + system
	volSwitches   int64
	involSwitches int64
}

func readRusage() rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return rusage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return rusage{cpu: tv(ru.Utime) + tv(ru.Stime), volSwitches: ru.Nvcsw, involSwitches: ru.Nivcsw}
}

type loCounters struct{ bytes, packets uint64 }

// readLoopback returns the loopback interface's receive counters (on lo
// every byte sent is a byte received, so one direction is the traffic).
func readLoopback() loCounters {
	f, err := os.Open("/proc/net/dev")
	if err != nil {
		return loCounters{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(strings.TrimSpace(sc.Text()), ":")
		if !ok || name != "lo" {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			break
		}
		b, _ := strconv.ParseUint(fields[0], 10, 64)
		p, _ := strconv.ParseUint(fields[1], 10, 64)
		return loCounters{bytes: b, packets: p}
	}
	return loCounters{}
}

// readStealMS returns the machine's cumulative steal time: what the
// hypervisor took from this guest's CPUs.
func readStealMS() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(fields[8], 64)
	return ticks * 10 // USER_HZ is 100 on every Linux this runs on
}

func readPeakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// environment is the record printed with every run so two outputs can
// be told apart by where they ran.
type environment struct {
	GitSHA     string
	GoVersion  string
	NumCPU     int
	GOMAXPROCS int
	Kernel     string
}

func readEnvironment() environment {
	e := environment{
		GitSHA:     "unknown (not a git checkout)",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
	}
	if sha := readGitHead(".."); sha != "" {
		e.GitSHA = sha
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(data))
	}
	return e
}

// readGitHead resolves HEAD of the checkout at root by reading .git
// directly: the benchmark starts no processes and reads nothing above
// its checkout.
func readGitHead(root string) string {
	head, err := os.ReadFile(root + "/.git/HEAD")
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	sha, err := os.ReadFile(root + "/.git/" + ref)
	if err != nil {
		return "" // packed ref: not worth a parser here
	}
	return strings.TrimSpace(string(sha))
}

func (e environment) String() string {
	return fmt.Sprintf("git %s, %s, nproc %d, GOMAXPROCS %d, kernel %s",
		e.GitSHA, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.Kernel)
}
