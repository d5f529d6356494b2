package main

import (
	"fmt"
	"io"
	"math/bits"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// The box is a virtual machine, and a virtual CPU that goes idle is halted:
// the host takes the core away and lets its clock fall, and the next request
// pays for the wake-up and the ramp. At the open-loop rates here the CPUs
// idle four fifths of the time, so that cost, which depends on what the
// host's other tenants do, was most of the run-to-run spread of every latency
// (README.md, "Keeping the CPUs awake"). keepAwake starts a child process
// that spins one thread per CPU under SCHED_IDLE: the kernel runs such a
// thread only while nothing else wants that CPU and takes the CPU from it the
// moment something does, so the program under test loses nothing to it, but
// the CPUs never halt.

// spinFlag makes the program the spinning child.
const spinFlag = "-spin"

const schedIdle = 5 // SCHED_IDLE of sched_setscheduler(2)

// notAwake is what standard error says on a box that refuses the spinners.
const notAwake = "bench: the CPUs are not kept awake, latencies will spread more: %v\n"

// keepAwake starts the spinning child and returns the function that stops it
// and waits until it has ended. The child holds the read end of a pipe and
// ends at end-of-file, so it also ends when this process dies without
// calling stop. A box that refuses the child is measured without it: noisier,
// and said so on standard error.
func keepAwake() (stop func()) {
	fail := func(err error) func() {
		fmt.Fprintf(os.Stderr, notAwake, err)
		return func() {}
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	cmd := exec.Command(exe, spinFlag)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdinPipe()
	if err != nil {
		return fail(err)
	}
	if err := cmd.Start(); err != nil {
		return fail(err)
	}
	return func() {
		pipe.Close()
		_ = cmd.Wait() // its exit code says nothing the child has not printed
	}
}

// spinMain is the child: one SCHED_IDLE spinner pinned to each CPU the
// process may use, until standard input ends.
func spinMain() int {
	var mask [16]uint64 // 1024 CPUs
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		fmt.Fprintf(os.Stderr, notAwake, fmt.Errorf("sched_getaffinity: %w", errno))
		return 1
	}
	var cpus []int
	for w := range mask[:n/8] {
		for m := mask[w]; m != 0; m &= m - 1 {
			cpus = append(cpus, w*64+bits.TrailingZeros64(m))
		}
	}
	// The spinners never yield; this goroutine keeps a P of its own.
	runtime.GOMAXPROCS(len(cpus) + 1)
	failed := make(chan error, len(cpus))
	for _, cpu := range cpus {
		go spin(cpu, failed)
	}
	ended := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		close(ended)
	}()
	select {
	case err := <-failed:
		fmt.Fprintf(os.Stderr, notAwake, err)
		return 1
	case <-ended:
		return 0
	}
}

// spin pins the calling thread to one CPU, drops it to SCHED_IDLE and spins
// on a dependent multiply chain, which leaves a sibling hyperthread most of
// the core. It never spins at normal priority: if either call fails it
// reports and returns.
func spin(cpu int, failed chan<- error) {
	runtime.LockOSThread()
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		failed <- fmt.Errorf("sched_setaffinity: %w", errno)
		return
	}
	var prio int32 // struct sched_param{0}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); errno != 0 {
		failed <- fmt.Errorf("sched_setscheduler: %w", errno)
		return
	}
	for x := uint64(cpu); ; x = x*6364136223846793005 + 1442695040888963407 {
		if x == 0 {
			spun = x // never proven unreachable, so the chain is computed
		}
	}
}

var spun uint64
