package main

import (
	"syscall"
	"time"
)

// The benchmark's host is a VM whose hypervisor at times takes a large share
// of its CPU time ("steal"). Wall time then stretches by whatever the
// neighbours do, in episodes longer than a run, which no median over
// repetitions removes. Every timing the benchmark reports is therefore net
// of steal: the wall time scaled by the share of the CPU time the process
// asked for that it got,
//
//	net = wall × cpu / (cpu + steal),
//
// where cpu is the process's own CPU time (which the kernel accounts
// without steal) and steal is the machine's steal time over the same
// interval. The process is the machine's only load, so steal falls on its
// threads in proportion to their demand; net is then the wall time the same
// work takes on an uncontended host, parallel speed-up included. The raw
// wall times are recorded beside the net ones in each run's info line.

// userHZ is the tick rate of /proc/stat's counters, fixed at 100 by the
// Linux ABI.
const userHZ = 100

// stamp is a reading of wall clock, process CPU time and machine steal.
type stamp struct {
	wall  time.Time
	cpu   time.Duration
	steal time.Duration
}

func now() stamp {
	s := stamp{wall: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	steal, _ := cpuTicks()
	s.steal = time.Duration(steal) * time.Second / userHZ
	return s
}

// since returns the wall time from s to now and the same net of steal.
func (s stamp) since() (wall, net time.Duration) {
	e := now()
	return span(s, e)
}

// span is since between two readings.
func span(s, e stamp) (wall, net time.Duration) {
	wall = e.wall.Sub(s.wall)
	cpu, steal := e.cpu-s.cpu, e.steal-s.steal
	if cpu <= 0 || steal <= 0 {
		return wall, wall
	}
	return wall, time.Duration(float64(wall) * float64(cpu) / float64(cpu+steal))
}
