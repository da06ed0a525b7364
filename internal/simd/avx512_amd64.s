#include "textflag.h"

// AVX-512 range-selection kernels (§5, Figure 6): each block of 16
// int32 or 8 int64 lanes is tested with one subtract and one unsigned
// compare (v in [lo,hi] iff uint(v-lo) <= uint(hi-lo)), the lane mask
// compresses the block's positions into a register, and a full-width
// store writes them at out[k]; KMOVW + POPCNTL advance k. The store
// covers out[k:k+lanes] with k <= i, so out must hold every position of
// the input, and narrowing sel in place only overwrites positions the
// loop has already loaded. Callers pass lengths that are a multiple of
// the lane count; the Go wrappers run the tail.

// iota32 is the positions 0..15 of one 16-lane block.
DATA iota32<>+0(SB)/4, $0
DATA iota32<>+4(SB)/4, $1
DATA iota32<>+8(SB)/4, $2
DATA iota32<>+12(SB)/4, $3
DATA iota32<>+16(SB)/4, $4
DATA iota32<>+20(SB)/4, $5
DATA iota32<>+24(SB)/4, $6
DATA iota32<>+28(SB)/4, $7
DATA iota32<>+32(SB)/4, $8
DATA iota32<>+36(SB)/4, $9
DATA iota32<>+40(SB)/4, $10
DATA iota32<>+44(SB)/4, $11
DATA iota32<>+48(SB)/4, $12
DATA iota32<>+52(SB)/4, $13
DATA iota32<>+56(SB)/4, $14
DATA iota32<>+60(SB)/4, $15
GLOBL iota32<>(SB), RODATA|NOPTR, $64

// func selectRangeAVX512(data []int32, lo, hi int32, out []int32) int
TEXT ·selectRangeAVX512(SB), NOSPLIT, $0-64
	MOVQ data_base+0(FP), SI
	MOVQ data_len+8(FP), CX
	MOVL lo+24(FP), AX
	MOVL hi+28(FP), BX
	MOVQ out_base+32(FP), DI
	SUBL AX, BX
	VPBROADCASTD AX, Z0             // lo
	VPBROADCASTD BX, Z1             // span = hi - lo
	VMOVDQU32 iota32<>(SB), Z2      // positions of the current block
	MOVL $16, DX
	VPBROADCASTD DX, Z3             // block stride
	XORQ R8, R8                     // k
	XORQ R9, R9                     // i

loop32:
	CMPQ R9, CX
	JGE  done32
	VMOVDQU32 (SI)(R9*4), Z4
	VPSUBD Z0, Z4, Z4
	VPCMPUD $2, Z1, Z4, K1          // K1 = (v-lo) <= span, unsigned
	VPCOMPRESSD Z2, K1, Z5
	VMOVDQU32 Z5, (DI)(R8*4)
	KMOVW K1, AX
	POPCNTL AX, AX
	ADDQ AX, R8
	VPADDD Z3, Z2, Z2
	ADDQ $16, R9
	JMP  loop32

done32:
	VZEROUPPER
	MOVQ R8, ret+56(FP)
	RET

// func selectRange64AVX512(data []int64, lo, hi int64, out []int32) int
TEXT ·selectRange64AVX512(SB), NOSPLIT, $0-72
	MOVQ data_base+0(FP), SI
	MOVQ data_len+8(FP), CX
	MOVQ lo+24(FP), AX
	MOVQ hi+32(FP), BX
	MOVQ out_base+40(FP), DI
	SUBQ AX, BX
	VPBROADCASTQ AX, Z0             // lo
	VPBROADCASTQ BX, Z1             // span = hi - lo
	VMOVDQU32 iota32<>(SB), Y2      // positions of the current block
	MOVL $8, DX
	VPBROADCASTD DX, Y3             // block stride
	XORQ R8, R8                     // k
	XORQ R9, R9                     // i

loop64:
	CMPQ R9, CX
	JGE  done64
	VMOVDQU64 (SI)(R9*8), Z4
	VPSUBQ Z0, Z4, Z4
	VPCMPUQ $2, Z1, Z4, K1          // K1 = (v-lo) <= span, unsigned
	VPCOMPRESSD Y2, K1, Y5
	VMOVDQU32 Y5, (DI)(R8*4)
	KMOVW K1, AX
	POPCNTL AX, AX
	ADDQ AX, R8
	VPADDD Y3, Y2, Y2
	ADDQ $8, R9
	JMP  loop64

done64:
	VZEROUPPER
	MOVQ R8, ret+64(FP)
	RET

// func selectRangeSparseAVX512(data []int32, lo, hi int32, sel, out []int32) int
TEXT ·selectRangeSparseAVX512(SB), NOSPLIT, $0-88
	MOVQ data_base+0(FP), DX
	MOVL lo+24(FP), AX
	MOVL hi+28(FP), BX
	MOVQ sel_base+32(FP), SI
	MOVQ sel_len+40(FP), CX
	MOVQ out_base+56(FP), DI
	SUBL AX, BX
	VPBROADCASTD AX, Z0             // lo
	VPBROADCASTD BX, Z1             // span = hi - lo
	XORQ R8, R8                     // k
	XORQ R9, R9                     // i

sloop32:
	CMPQ R9, CX
	JGE  sdone32
	VMOVDQU32 (SI)(R9*4), Z2        // sel[i:i+16]
	KXNORW K0, K0, K2               // gather every lane
	VPGATHERDD (DX)(Z2*4), K2, Z4   // data[sel[i+j]]
	VPSUBD Z0, Z4, Z4
	VPCMPUD $2, Z1, Z4, K1
	VPCOMPRESSD Z2, K1, Z5
	VMOVDQU32 Z5, (DI)(R8*4)
	KMOVW K1, AX
	POPCNTL AX, AX
	ADDQ AX, R8
	ADDQ $16, R9
	JMP  sloop32

sdone32:
	VZEROUPPER
	MOVQ R8, ret+80(FP)
	RET

// func selectRangeSparse64AVX512(data []int64, lo, hi int64, sel, out []int32) int
TEXT ·selectRangeSparse64AVX512(SB), NOSPLIT, $0-96
	MOVQ data_base+0(FP), DX
	MOVQ lo+24(FP), AX
	MOVQ hi+32(FP), BX
	MOVQ sel_base+40(FP), SI
	MOVQ sel_len+48(FP), CX
	MOVQ out_base+64(FP), DI
	SUBQ AX, BX
	VPBROADCASTQ AX, Z0             // lo
	VPBROADCASTQ BX, Z1             // span = hi - lo
	XORQ R8, R8                     // k
	XORQ R9, R9                     // i

sloop64:
	CMPQ R9, CX
	JGE  sdone64
	VMOVDQU32 (SI)(R9*4), Y2        // sel[i:i+8]
	KXNORW K0, K0, K2               // gather every lane
	VPGATHERDQ (DX)(Y2*8), K2, Z4   // data[sel[i+j]]
	VPSUBQ Z0, Z4, Z4
	VPCMPUQ $2, Z1, Z4, K1
	VPCOMPRESSD Y2, K1, Y5
	VMOVDQU32 Y5, (DI)(R8*4)
	KMOVW K1, AX
	POPCNTL AX, AX
	ADDQ AX, R8
	ADDQ $8, R9
	JMP  sloop64

sdone64:
	VZEROUPPER
	MOVQ R8, ret+88(FP)
	RET

// AVX-512 key-membership kernels (§5.2): 8 key words per block. Each
// block subtracts min, compares the difference unsigned against the
// set's length (bound = len(words) << shift) into a lane mask, gathers
// words[d >> shift] under that mask (VPGATHERQQ: a rejected lane loads
// nothing, so d never indexes past the words), shifts the word right by
// d & bit and tests it against test (VPTESTMQ, masked by the range
// lanes), and compresses the members' positions (VPCOMPRESSD) to
// out[k] as the range kernels do. A bitmap passes shift 6, bit 63,
// test 1; a slot array shift 0, bit 0, test all ones. Callers pass
// lengths that are a multiple of 8 and a non-empty word array; the Go
// wrappers run the tail.
//
// Registers: Z0 min, Z1 bound, Z6 shift, Z7 bit, Z8 test, DX &words[0],
// R8 k, R9 i.

// MEMBERS leaves in K3 the lanes of the 8 key words in Z4 that are
// members.
#define MEMBERS \
	VPSUBQ     Z0, Z4, Z4;          \
	VPCMPUQ    $1, Z1, Z4, K1;      \
	VPSRLVQ    Z6, Z4, Z5;          \
	KMOVW      K1, K2;              \
	VPGATHERQQ (DX)(Z5*8), K2, Z9;  \
	VPANDQ     Z7, Z4, Z4;          \
	VPSRLVQ    Z4, Z9, Z9;          \
	VPTESTMQ   Z8, Z9, K1, K3

// func membersAVX512(keys []int32, words []uint64, min, shift, bit, test uint64, out []int32) int
TEXT ·membersAVX512(SB), NOSPLIT, $0-112
	MOVQ words_base+24(FP), DX
	MOVQ words_len+32(FP), AX
	MOVQ shift+56(FP), CX
	SHLQ CX, AX
	VPBROADCASTQ CX, Z6             // shift
	VPBROADCASTQ AX, Z1             // bound
	MOVQ min+48(FP), AX
	VPBROADCASTQ AX, Z0             // min
	MOVQ bit+64(FP), AX
	VPBROADCASTQ AX, Z7             // bit
	MOVQ test+72(FP), AX
	VPBROADCASTQ AX, Z8             // test
	MOVQ keys_base+0(FP), SI
	MOVQ keys_len+8(FP), CX
	MOVQ out_base+80(FP), DI
	VMOVDQU32 iota32<>(SB), Y2      // positions of the current block
	MOVL $8, AX
	VPBROADCASTD AX, Y3             // block stride
	XORQ R8, R8
	XORQ R9, R9

mloop32:
	CMPQ R9, CX
	JGE  mdone32
	VPMOVZXDQ (SI)(R9*4), Z4        // 8 keys, zero-extended
	MEMBERS
	VPCOMPRESSD Y2, K3, Y5
	VMOVDQU32 Y5, (DI)(R8*4)
	KMOVW K3, AX
	POPCNTL AX, AX
	ADDQ AX, R8
	VPADDD Y3, Y2, Y2
	ADDQ $8, R9
	JMP  mloop32

mdone32:
	VZEROUPPER
	MOVQ R8, ret+104(FP)
	RET

// func members64AVX512(keys []int64, words []uint64, min, shift, bit, test uint64, out []int32) int
TEXT ·members64AVX512(SB), NOSPLIT, $0-112
	MOVQ words_base+24(FP), DX
	MOVQ words_len+32(FP), AX
	MOVQ shift+56(FP), CX
	SHLQ CX, AX
	VPBROADCASTQ CX, Z6
	VPBROADCASTQ AX, Z1
	MOVQ min+48(FP), AX
	VPBROADCASTQ AX, Z0
	MOVQ bit+64(FP), AX
	VPBROADCASTQ AX, Z7
	MOVQ test+72(FP), AX
	VPBROADCASTQ AX, Z8
	MOVQ keys_base+0(FP), SI
	MOVQ keys_len+8(FP), CX
	MOVQ out_base+80(FP), DI
	VMOVDQU32 iota32<>(SB), Y2
	MOVL $8, AX
	VPBROADCASTD AX, Y3
	XORQ R8, R8
	XORQ R9, R9

mloop64:
	CMPQ R9, CX
	JGE  mdone64
	VMOVDQU64 (SI)(R9*8), Z4
	MEMBERS
	VPCOMPRESSD Y2, K3, Y5
	VMOVDQU32 Y5, (DI)(R8*4)
	KMOVW K3, AX
	POPCNTL AX, AX
	ADDQ AX, R8
	VPADDD Y3, Y2, Y2
	ADDQ $8, R9
	JMP  mloop64

mdone64:
	VZEROUPPER
	MOVQ R8, ret+104(FP)
	RET

// func membersSparseAVX512(keys []int32, words []uint64, min, shift, bit, test uint64, sel, out []int32) int
TEXT ·membersSparseAVX512(SB), NOSPLIT, $0-136
	MOVQ words_base+24(FP), DX
	MOVQ words_len+32(FP), AX
	MOVQ shift+56(FP), CX
	SHLQ CX, AX
	VPBROADCASTQ CX, Z6
	VPBROADCASTQ AX, Z1
	MOVQ min+48(FP), AX
	VPBROADCASTQ AX, Z0
	MOVQ bit+64(FP), AX
	VPBROADCASTQ AX, Z7
	MOVQ test+72(FP), AX
	VPBROADCASTQ AX, Z8
	MOVQ keys_base+0(FP), BX
	MOVQ sel_base+80(FP), SI
	MOVQ sel_len+88(FP), CX
	MOVQ out_base+104(FP), DI
	XORQ R8, R8
	XORQ R9, R9

msloop32:
	CMPQ R9, CX
	JGE  msdone32
	VMOVDQU32 (SI)(R9*4), Y2        // sel[i:i+8]
	KXNORW K0, K0, K2               // gather every lane
	VPGATHERDD (BX)(Y2*4), K2, Y4   // keys[sel[i+j]]
	VPMOVZXDQ Y4, Z4                // zero-extended
	MEMBERS
	VPCOMPRESSD Y2, K3, Y5
	VMOVDQU32 Y5, (DI)(R8*4)
	KMOVW K3, AX
	POPCNTL AX, AX
	ADDQ AX, R8
	ADDQ $8, R9
	JMP  msloop32

msdone32:
	VZEROUPPER
	MOVQ R8, ret+128(FP)
	RET

// func membersSparse64AVX512(keys []int64, words []uint64, min, shift, bit, test uint64, sel, out []int32) int
TEXT ·membersSparse64AVX512(SB), NOSPLIT, $0-136
	MOVQ words_base+24(FP), DX
	MOVQ words_len+32(FP), AX
	MOVQ shift+56(FP), CX
	SHLQ CX, AX
	VPBROADCASTQ CX, Z6
	VPBROADCASTQ AX, Z1
	MOVQ min+48(FP), AX
	VPBROADCASTQ AX, Z0
	MOVQ bit+64(FP), AX
	VPBROADCASTQ AX, Z7
	MOVQ test+72(FP), AX
	VPBROADCASTQ AX, Z8
	MOVQ keys_base+0(FP), BX
	MOVQ sel_base+80(FP), SI
	MOVQ sel_len+88(FP), CX
	MOVQ out_base+104(FP), DI
	XORQ R8, R8
	XORQ R9, R9

msloop64:
	CMPQ R9, CX
	JGE  msdone64
	VMOVDQU32 (SI)(R9*4), Y2        // sel[i:i+8]
	KXNORW K0, K0, K2
	VPGATHERDQ (BX)(Y2*8), K2, Z4   // keys[sel[i+j]]
	MEMBERS
	VPCOMPRESSD Y2, K3, Y5
	VMOVDQU32 Y5, (DI)(R8*4)
	KMOVW K3, AX
	POPCNTL AX, AX
	ADDQ AX, R8
	ADDQ $8, R9
	JMP  msloop64

msdone64:
	VZEROUPPER
	MOVQ R8, ret+128(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
