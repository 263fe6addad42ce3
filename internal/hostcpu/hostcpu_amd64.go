package hostcpu

func init() {
	const osxsaveAVX = 1<<27 | 1<<28 // CPUID.1:ECX
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
	AVX2 = ymm && b7&(1<<5) != 0
	AVX512F = b7&(1<<16) != 0 && xcr0&0xe6 == 0xe6 // and opmask, ZMM_Hi256, Hi16_ZMM
	FMA = ymm && c1&(1<<12) != 0
	F16C = ymm && c1&(1<<29) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32
