package hostcpu

func init() {
	const osxsaveAVX = 1<<27 | 1<<28 // CPUID.1:ECX
	Lanes = 2
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, c1, _ := cpuid(1, 0)
	if c1&osxsaveAVX != osxsaveAVX {
		return
	}
	xcr0, b7 := xgetbv0(), uint32(0)
	if maxLeaf >= 7 {
		_, b7, _, _ = cpuid(7, 0)
	}
	ymm := xcr0&0x6 == 0x6 // the OS saves XMM, YMM
	FMA = ymm && c1&(1<<12) != 0
	F16C = ymm && c1&(1<<29) != 0
	avx2 := ymm && b7&(1<<5) != 0
	avx512f := b7&(1<<16) != 0 && xcr0&0xe6 == 0xe6 // and opmask, ZMM_Hi256, Hi16_ZMM
	switch {
	case avx2 && avx512f: // so that Lanes ≥ 4 implies AVX2 at every width
		Lanes = 8
	case avx2:
		Lanes = 4
	}
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32
