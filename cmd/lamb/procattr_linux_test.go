package main

import (
	osexec "os/exec"
	"syscall"
)

// dieWithTestBinary makes the kernel SIGKILL cmd when the test binary
// exits. t.Cleanup kills a re-execed server only when the test ends
// normally; a go test that times out, panics or is killed skips it, and
// the server would keep listening.
func dieWithTestBinary(cmd *osexec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
