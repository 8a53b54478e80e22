package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// cpuSet is a sorted list of CPU numbers.
type cpuSet []int

func (s cpuSet) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, ",")
}

// cpuMask is the kernel's affinity bitmap; 1024 CPUs is glibc's limit
// too.
type cpuMask [16]uint64

func (s cpuSet) mask() cpuMask {
	var m cpuMask
	for _, c := range s {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

// affinity reads the CPUs thread tid may run on (0 = calling thread).
func affinity(tid int) (cpuSet, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY,
		uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity(%d): %w", tid, errno)
	}
	var set cpuSet
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			set = append(set, c)
		}
	}
	return set, nil
}

// setAffinity restricts thread tid (0 = calling thread) to set.
func setAffinity(tid int, set cpuSet) error {
	m := set.mask()
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY,
		uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d, %s): %w", tid, set, errno)
	}
	return nil
}

// pinSelf restricts every thread of this process to set. A thread
// cloned while a pass is under way inherits its creator's mask, which
// that pass may not have narrowed yet, so passes repeat until one finds
// nothing left to change.
func pinSelf(set cpuSet) error {
	want := set.String()
	for pass := 0; pass < 8; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		changed := false
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			cur, err := affinity(tid)
			if err != nil {
				continue // the thread exited between ReadDir and here
			}
			if cur.String() == want {
				continue
			}
			if err := setAffinity(tid, set); err != nil {
				return err
			}
			changed = true
		}
		if !changed {
			runtime.GOMAXPROCS(len(set))
			return nil
		}
	}
	return fmt.Errorf("pinning to %s did not settle", want)
}

// splitCPUs gives the server the lower ⌈n/2⌉ allowed CPUs and the load
// generator the rest. With a single CPU there is nothing to separate.
func splitCPUs(all cpuSet) (server, client cpuSet, pinned bool) {
	if len(all) < 2 {
		return all, all, false
	}
	h := (len(all) + 1) / 2
	return all[:h], all[h:], true
}

// Filesystem magic numbers statfs reports.
const tmpfsMagic = 0x01021994

// chooseStoreDir picks where store roots and davd's log live. The
// sandbox's virtual disk does not repeat (write-back state carries from
// one run into the next: the same 2-client write mix gave 2285, 1804,
// 1679 ops/s in three back-to-back runs), so the store goes on tmpfs:
// the build directory's own store/ when run.sh has mounted one there,
// else /dev/shm when it is tmpfs, writable and has 1 GiB free. Without
// either, runs stay on the build directory's disk and store_fs says so.
func chooseStoreDir(buildDir string) (dir, fsName string, err error) {
	isTmpfs := func(p string, minFree uint64) bool {
		var st syscall.Statfs_t
		return syscall.Statfs(p, &st) == nil && st.Type == tmpfsMagic && uint64(st.Bavail)*uint64(st.Bsize) >= minFree
	}
	local := filepath.Join(buildDir, "store")
	if err := os.MkdirAll(local, 0o755); err != nil {
		return "", "", err
	}
	parent, fsName := local, "disk:"+local
	switch {
	case isTmpfs(local, 1<<30):
		fsName = "tmpfs:" + local
	case isTmpfs("/dev/shm", 1<<30):
		parent, fsName = "/dev/shm", "tmpfs:/dev/shm"
	}
	if dir, err = os.MkdirTemp(parent, "davbench-"); err != nil && parent != local {
		parent, fsName = local, "disk:"+local
		dir, err = os.MkdirTemp(parent, "davbench-")
	}
	return dir, fsName, err
}

// findRepo walks up from the working directory to the module that owns
// cmd/davd.
func findRepo() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "davd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/davd in or above the working directory")
		}
		dir = parent
	}
}

// buildDavd compiles the tree's cmd/davd into buildDir.
func buildDavd(repo, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "davd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/davd")
	cmd.Dir = repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/davd: %v\n%s", err, out)
	}
	return bin, nil
}

// gitCommit names the tree being measured; a checkout without git
// metadata has no name.
func gitCommit(repo string) string {
	out, err := exec.Command("git", "-C", repo, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// procSample is one reading of a process's kernel accounting.
type procSample struct {
	UserMs, SysMs float64
	ReadCalls     int64 // syscr
	WriteCalls    int64 // syscw
	WriteChars    int64 // wchar
	VolCtx        int64 // voluntary context switches, all threads
	PeakRSSKB     int64 // VmHWM
}

// clockTick is USER_HZ, which Linux fixes at 100 for every
// architecture's /proc interface.
const clockTick = 100

// parseProcStat extracts utime and stime (milliseconds) from
// /proc/PID/stat. The command name may contain spaces and parentheses,
// so fields are counted from the last ')'.
func parseProcStat(s string) (userMs, sysMs float64, err error) {
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("proc stat: no command field in %q", s)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("proc stat: bad times %q %q", f[11], f[12])
	}
	return float64(ut) * 1000 / clockTick, float64(st) * 1000 / clockTick, nil
}

// parseKeyed reads "key: value [unit]" lines (/proc/PID/io and
// /proc/PID/status) into integers, skipping lines that are not numeric.
func parseKeyed(s string) map[string]int64 {
	out := map[string]int64{}
	for _, line := range strings.Split(s, "\n") {
		key, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			continue
		}
		if v, err := strconv.ParseInt(f[0], 10, 64); err == nil {
			out[key] = v
		}
	}
	return out
}

// sampleProc reads pid's accounting. CPU time is needed on every run;
// the rest only feeds per-layer metrics, so full=false skips it.
func sampleProc(pid int, full bool) (procSample, error) {
	var ps procSample
	base := "/proc/" + strconv.Itoa(pid)
	b, err := os.ReadFile(base + "/stat")
	if err != nil {
		return ps, err
	}
	if ps.UserMs, ps.SysMs, err = parseProcStat(string(b)); err != nil || !full {
		return ps, err
	}
	if b, err = os.ReadFile(base + "/io"); err != nil {
		return ps, err
	}
	io := parseKeyed(string(b))
	ps.ReadCalls, ps.WriteCalls, ps.WriteChars = io["syscr"], io["syscw"], io["wchar"]
	if b, err = os.ReadFile(base + "/status"); err != nil {
		return ps, err
	}
	ps.PeakRSSKB = parseKeyed(string(b))["VmHWM"]
	// /proc/PID/status counts the main thread's switches only.
	tasks, err := os.ReadDir(base + "/task")
	if err != nil {
		return ps, err
	}
	for _, t := range tasks {
		if b, err := os.ReadFile(base + "/task/" + t.Name() + "/status"); err == nil {
			ps.VolCtx += parseKeyed(string(b))["voluntary_ctxt_switches"]
		}
	}
	return ps, nil
}

// selfCPUMs is this process's user+system CPU time so far.
func selfCPUMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	ms := func(tv syscall.Timeval) float64 { return float64(tv.Sec)*1000 + float64(tv.Usec)/1000 }
	return ms(ru.Utime) + ms(ru.Stime)
}
