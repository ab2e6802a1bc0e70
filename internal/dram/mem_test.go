package dram

import (
	"errors"
	"testing"
	"testing/quick"
)

func testMem(t *testing.T) *Mem {
	t.Helper()
	return newMem(t, DefaultGeometry())
}

func newMem(t *testing.T, g Geometry) *Mem {
	t.Helper()
	m, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// issueASAP advances from cycle now until cmd is legal, issues it, and
// returns the issue cycle.
func issueASAP(t *testing.T, m *Mem, cmd Command, a Addr, now int64) int64 {
	t.Helper()
	for !m.CanIssue(cmd, a, now, false) {
		now++
		if now > 1<<20 {
			t.Fatalf("%v to %+v never became legal", cmd, a)
		}
	}
	m.Issue(cmd, a, now, false)
	return now
}

func TestGeometryCapacity(t *testing.T) {
	g := DefaultGeometry()
	if got, want := g.Capacity(), uint64(32)<<30; got != want {
		t.Errorf("Capacity() = %d, want %d", got, want)
	}
	// The paper's 2 MiB system-row example is for a 1 TiB system; the
	// 32 GiB baseline gives 512 KiB (2ch x 2rk x 16 banks x 8 KiB rows).
	if got, want := g.SystemRowBytes(), 512<<10; got != want {
		t.Errorf("SystemRowBytes() = %d, want %d (512KiB)", got, want)
	}
	if got, want := g.RowBytes(), 8<<10; got != want {
		t.Errorf("RowBytes() = %d, want %d", got, want)
	}
}

func TestGeometryValidate(t *testing.T) {
	g := DefaultGeometry()
	if err := g.Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	bad := g
	bad.Ranks = 3
	if err := bad.Validate(); err == nil {
		t.Error("Validate() accepted non-power-of-two rank count")
	}
	bad = g
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Error("Validate() accepted zero channels")
	}
	// 2^32 blocks per rank is the largest a 32-bit block number covers.
	edge := g
	edge.Rows = 1 << 32 / (g.BanksPerRank() * g.Cols)
	if err := edge.Validate(); err != nil {
		t.Errorf("Validate() rejected a rank of exactly 2^32 blocks: %v", err)
	}
	bad = edge
	bad.Rows *= 2
	if err := bad.Validate(); !errors.Is(err, ErrRankTooLarge) {
		t.Errorf("Validate() on a rank of 2^33 blocks = %v, want ErrRankTooLarge", err)
	}
}

func TestActivateThenReadTiming(t *testing.T) {
	m := testMem(t)
	a := Addr{Row: 7, Col: 3}
	if !m.CanIssue(CmdACT, a, 0, false) {
		t.Fatal("ACT to idle bank refused at cycle 0")
	}
	m.Issue(CmdACT, a, 0, false)
	if m.CanIssue(CmdRD, a, int64(RCD)-1, false) {
		t.Error("RD allowed before tRCD")
	}
	if !m.CanIssue(CmdRD, a, int64(RCD), false) {
		t.Error("RD refused at exactly tRCD")
	}
	if m.CanIssue(CmdRD, Addr{Row: 8, Col: 0}, int64(RCD), false) {
		t.Error("RD to a different (closed) row allowed")
	}
}

func TestRowMissNeedsPrecharge(t *testing.T) {
	m := testMem(t)
	a := Addr{Row: 1}
	m.Issue(CmdACT, a, 0, false)
	b := Addr{Row: 2}
	if m.CanIssue(CmdACT, b, 100, false) {
		t.Fatal("ACT allowed while conflicting row open (bank conflict)")
	}
	if m.CanIssue(CmdPRE, a, int64(RAS)-1, false) {
		t.Error("PRE allowed before tRAS")
	}
	m.Issue(CmdPRE, a, int64(RAS), false)
	preDone := int64(RAS + RP)
	if m.CanIssue(CmdACT, b, preDone-1, false) {
		t.Error("ACT allowed before tRP elapsed")
	}
	if !m.CanIssue(CmdACT, b, preDone, false) {
		t.Error("ACT refused after tRP")
	}
}

func TestColumnToColumnSpacing(t *testing.T) {
	m := testMem(t)
	same := Addr{BankGroup: 0, Bank: 0, Row: 0, Col: 0}
	sameBG := Addr{BankGroup: 0, Bank: 1, Row: 0, Col: 0}
	diffBG := Addr{BankGroup: 1, Bank: 0, Row: 0, Col: 0}
	now := int64(0)
	for _, a := range []Addr{same, sameBG, diffBG} {
		now = issueASAP(t, m, CmdACT, a, now)
	}
	start := now + int64(RCD+FAW) // safely past activation constraints
	m.Issue(CmdRD, same, start, false)

	if m.CanIssue(CmdRD, sameBG, start+int64(CCDL)-1, false) {
		t.Error("same-bank-group RD allowed before tCCD_L")
	}
	if !m.CanIssue(CmdRD, sameBG, start+int64(CCDL), false) {
		t.Error("same-bank-group RD refused at tCCD_L")
	}
	if m.CanIssue(CmdRD, diffBG, start+int64(CCDS)-1, false) {
		t.Error("cross-bank-group RD allowed before tCCD_S")
	}
	if !m.CanIssue(CmdRD, diffBG, start+int64(CCDS), false) {
		t.Error("cross-bank-group RD refused at tCCD_S")
	}
}

func TestWriteToReadTurnaround(t *testing.T) {
	m := testMem(t)
	w := Addr{BankGroup: 0, Row: 0}
	rSame := Addr{BankGroup: 0, Bank: 1, Row: 0}
	rDiff := Addr{BankGroup: 1, Row: 0}
	now := int64(0)
	for _, a := range []Addr{w, rSame, rDiff} {
		now = issueASAP(t, m, CmdACT, a, now)
	}
	start := now + int64(RCD+FAW)
	m.Issue(CmdWR, w, start, false)

	long := start + int64(WriteToReadSameBG)
	short := start + int64(WriteToReadDiffBG)
	if m.CanIssue(CmdRD, rSame, long-1, false) {
		t.Error("same-BG read allowed inside tWTR_L window")
	}
	if !m.CanIssue(CmdRD, rSame, long, false) {
		t.Error("same-BG read refused after tWTR_L window")
	}
	if m.CanIssue(CmdRD, rDiff, short-1, false) {
		t.Error("cross-BG read allowed inside tWTR_S window")
	}
	if !m.CanIssue(CmdRD, rDiff, short, false) {
		t.Error("cross-BG read refused after tWTR_S window")
	}
}

func TestReadToWriteTurnaround(t *testing.T) {
	m := testMem(t)
	r := Addr{BankGroup: 0, Row: 0}
	w := Addr{BankGroup: 1, Row: 0}
	m.Issue(CmdACT, r, 0, false)
	issueASAP(t, m, CmdACT, w, int64(RRDS))
	start := int64(RCD + FAW)
	m.Issue(CmdRD, r, start, false)
	rtw := start + int64(ReadToWrite)
	if m.CanIssue(CmdWR, w, rtw-1, false) {
		t.Error("write allowed inside read-to-write turnaround")
	}
	if !m.CanIssue(CmdWR, w, rtw, false) {
		t.Error("write refused after read-to-write turnaround")
	}
}

func TestFourActivationWindow(t *testing.T) {
	m := testMem(t)
	var now int64
	for i := 0; i < 4; i++ {
		a := Addr{BankGroup: i, Row: 0}
		for !m.CanIssue(CmdACT, a, now, false) {
			now++
		}
		m.Issue(CmdACT, a, now, false)
	}
	fifth := Addr{BankGroup: 0, Bank: 1, Row: 0}
	var fifthAt int64
	for fifthAt = now; !m.CanIssue(CmdACT, fifth, fifthAt, false); fifthAt++ {
	}
	// The fifth ACT must wait for tFAW after the first.
	if fifthAt < int64(FAW) {
		t.Errorf("fifth ACT issued at %d, before tFAW=%d elapsed", fifthAt, FAW)
	}
}

func TestRankSwitchPenaltyOnChannelBus(t *testing.T) {
	m := testMem(t)
	r0 := Addr{Rank: 0, Row: 0}
	r1 := Addr{Rank: 1, Row: 0}
	m.Issue(CmdACT, r0, 0, false)
	m.Issue(CmdACT, r1, 0, false) // different rank: no tRRD interaction
	start := int64(RCD + FAW)
	m.Issue(CmdRD, r0, start, false)

	// Same command spacing cross-rank must respect BL + tRTRS on the bus.
	minGap := int64(BL + RTRS)
	if m.CanIssue(CmdRD, r1, start+minGap-1, false) {
		t.Error("cross-rank RD allowed without tRTRS bus gap")
	}
	if !m.CanIssue(CmdRD, r1, start+minGap, false) {
		t.Error("cross-rank RD refused after tRTRS bus gap")
	}
	// An internal (NDA) access to the other rank sees no bus constraint.
	if !m.CanIssue(CmdRD, r1, start+int64(CCDS), true) {
		t.Error("internal RD to other rank blocked by channel bus")
	}
}

func TestInternalAccessSharesRankState(t *testing.T) {
	m := testMem(t)
	a := Addr{Row: 0}
	b := Addr{BankGroup: 1, Row: 0}
	m.Issue(CmdACT, a, 0, false)
	issueASAP(t, m, CmdACT, b, int64(RRDS))
	start := int64(RCD + FAW)
	// NDA write then host read on the same rank: tWTR applies.
	m.Issue(CmdWR, a, start, true)
	hostRead := start + int64(WriteToReadDiffBG)
	if m.CanIssue(CmdRD, b, hostRead-1, false) {
		t.Error("host read ignored NDA write-to-read turnaround")
	}
	if !m.CanIssue(CmdRD, b, hostRead, false) {
		t.Error("host read blocked past NDA turnaround window")
	}
	if m.Counts().NDAWR != 1 || m.Counts().WR != 0 {
		t.Errorf("command accounting wrong: NDAWR=%d WR=%d", m.Counts().NDAWR, m.Counts().WR)
	}
}

func TestIssueIllegalPanics(t *testing.T) {
	m := testMem(t)
	defer func() {
		if recover() == nil {
			t.Error("Issue of illegal command did not panic")
		}
	}()
	m.Issue(CmdRD, Addr{Row: 0}, 0, false) // bank closed
}

// TestTimingMonotonic property: once CanIssue turns true for a command on
// untouched state, it stays true at later cycles.
func TestTimingMonotonic(t *testing.T) {
	f := func(rowSeed uint8, gap uint8) bool {
		m := testMem(t)
		a := Addr{Row: int(rowSeed)}
		m.Issue(CmdACT, a, 0, false)
		first := int64(-1)
		for c := int64(0); c < 200; c++ {
			ok := m.CanIssue(CmdRD, a, c, false)
			if ok && first < 0 {
				first = c
			}
			if first >= 0 && !ok {
				return false
			}
		}
		return first == int64(RCD)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
