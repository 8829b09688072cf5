//go:build !linux

package main

import osexec "os/exec"

// dieWithTestBinary is a no-op where the kernel has no parent-death
// signal; t.Cleanup remains the only kill.
func dieWithTestBinary(*osexec.Cmd) {}
