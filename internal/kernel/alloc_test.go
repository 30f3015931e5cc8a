package kernel

import (
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/pm"
)

// Allocation gate for the syscall funnel: with no observers attached, a
// call/reply rendezvous and a yield allocate nothing on the host. The
// exit state is a value, queue pops reuse their arrays, and object
// dereferences index the permission tables, so a steady-state syscall
// has nothing to allocate.

// rendezvousPair boots a kernel whose init thread calls a server thread
// on the same core, with the server already blocked receiving.
func rendezvousPair(t *testing.T) (k *Kernel, client, server pm.Ptr) {
	t.Helper()
	k, client, err := Boot(hw.Config{Frames: 8192, Cores: 2, TLBSlots: 256})
	if err != nil {
		t.Fatal(err)
	}
	server = pm.Ptr(mustOK(t, k.SysNewThread(0, client, 0)).Vals[0])
	ep := pm.Ptr(mustOK(t, k.SysNewEndpoint(0, client, 0)).Vals[0])
	k.PM.Thrd(server).Endpoints[0] = ep
	k.PM.EndpointIncRef(ep, 1)
	if r := k.SysRecv(0, server, 0, RecvArgs{EdptSlot: -1}); r.Errno != EWOULDBLOCK {
		t.Fatalf("server recv: %v", r.Errno)
	}
	return k, client, server
}

func TestSysCallReplyRecvAllocFree(t *testing.T) {
	k, client, server := rendezvousPair(t)
	round := func() {
		if r := k.SysCall(0, client, 0, SendArgs{Regs: [4]uint64{7}}); r.Errno != EWOULDBLOCK {
			t.Fatalf("call: %v", r.Errno)
		}
		if r := k.SysReplyRecv(0, server, 0, SendArgs{}, RecvArgs{EdptSlot: -1}); r.Errno != EWOULDBLOCK {
			t.Fatalf("reply_recv: %v", r.Errno)
		}
	}
	round() // first use creates the lock shards and sizes the queues
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Fatalf("call + reply_recv rendezvous: %v allocs, want 0", got)
	}
}

func TestSysYieldAllocFree(t *testing.T) {
	k, init := boot(t)
	mustOK(t, k.SysNewThread(0, init, 0))
	cur := init
	yield := func() {
		if r := k.SysYield(0, cur); r.Errno != OK {
			t.Fatalf("yield: %v", r.Errno)
		}
		cur = k.PM.Sched().Current(0)
	}
	yield()
	if got := testing.AllocsPerRun(200, yield); got != 0 {
		t.Fatalf("yield: %v allocs, want 0", got)
	}
}
