//! Architectural semantics tests for the less-common instructions that
//! single-bit corruption routinely produces from ordinary code (the
//! `0x60`–`0x6F` block neighbours, BCD adjusts, rotates, string ops with
//! DF set, bit-test memory forms, ...). Faithful semantics here shape the
//! NM-vs-FSV boundary of the study.

use fisec_x86::eflags::{AF, CF, DF, OF, SF, ZF};
use fisec_x86::{Fault, Machine, Memory, Perms, Reg32, Reg8, Region, RunOutcome, StepEvent};

fn machine(text: Vec<u8>) -> Machine {
    let mut mem = Memory::new();
    mem.map(Region::with_data("text", 0x1000, text, Perms::RX))
        .unwrap();
    mem.map(Region::zeroed("data", 0x2000, 0x1000, Perms::RW))
        .unwrap();
    mem.map(Region::zeroed("stack", 0x8000, 0x1000, Perms::RW))
        .unwrap();
    let mut m = Machine::new(mem);
    m.cpu.eip = 0x1000;
    m.cpu.regs[Reg32::Esp as usize] = 0x9000;
    m
}

fn steps(m: &mut Machine, n: usize) {
    for _ in 0..n {
        assert_eq!(m.step(), StepEvent::Executed, "eip={:#x}", m.cpu.eip);
    }
}

#[test]
fn daa_adjusts_packed_bcd() {
    // 0x19 + 0x28 = 0x41 binary, daa -> 0x47 BCD.
    let mut m = machine(vec![0xB0, 0x19, 0x04, 0x28, 0x27]);
    steps(&mut m, 3);
    assert_eq!(m.cpu.get8(Reg8::Al), 0x47);
    assert_eq!(m.cpu.eflags & CF, 0);
}

#[test]
fn daa_carries_past_99() {
    // 0x91 + 0x12 = 0xA3 -> daa -> 0x03 with CF.
    let mut m = machine(vec![0xB0, 0x91, 0x04, 0x12, 0x27]);
    steps(&mut m, 3);
    assert_eq!(m.cpu.get8(Reg8::Al), 0x03);
    assert_ne!(m.cpu.eflags & CF, 0);
}

#[test]
fn das_subtracts_bcd() {
    // 0x47 - 0x19: sub -> 0x2E; das -> 0x28.
    let mut m = machine(vec![0xB0, 0x47, 0x2C, 0x19, 0x2F]);
    steps(&mut m, 3);
    assert_eq!(m.cpu.get8(Reg8::Al), 0x28);
}

#[test]
fn aaa_adjusts_unpacked() {
    // 9 + 8 = 0x11; aaa -> AL=7, AH+=1, CF/AF set.
    let mut m = machine(vec![0xB8, 0x09, 0x00, 0x00, 0x00, 0x04, 0x08, 0x37]);
    steps(&mut m, 3);
    assert_eq!(m.cpu.get8(Reg8::Al), 0x07);
    assert_eq!(m.cpu.get8(Reg8::Ah), 0x01);
    assert_ne!(m.cpu.eflags & CF, 0);
    assert_ne!(m.cpu.eflags & AF, 0);
}

#[test]
fn aam_divides_and_aad_recombines() {
    // AL=123: aam -> AH=12, AL=3; aad -> AL=123, AH=0.
    let mut m = machine(vec![0xB0, 123, 0xD4, 0x0A, 0xD5, 0x0A]);
    steps(&mut m, 2);
    assert_eq!(m.cpu.get8(Reg8::Ah), 12);
    assert_eq!(m.cpu.get8(Reg8::Al), 3);
    steps(&mut m, 1);
    assert_eq!(m.cpu.get8(Reg8::Al), 123);
    assert_eq!(m.cpu.get8(Reg8::Ah), 0);
}

#[test]
fn aam_zero_is_divide_error() {
    let mut m = machine(vec![0xD4, 0x00]);
    let StepEvent::Fault(f) = m.step() else {
        panic!()
    };
    assert_eq!(f, Fault::DivideError(0x1000));
}

#[test]
fn string_ops_respect_direction_flag() {
    // std; lea esi/edi; mov ecx,3; rep movsb moving *down*.
    let mut m = machine(vec![0xFD, 0xF3, 0xA4]);
    m.mem.write_bytes(0x2000, b"abc").unwrap();
    m.cpu.regs[Reg32::Esi as usize] = 0x2002; // 'c'
    m.cpu.regs[Reg32::Edi as usize] = 0x2012;
    m.cpu.regs[Reg32::Ecx as usize] = 3;
    steps(&mut m, 2);
    assert_ne!(m.cpu.eflags & DF, 0);
    // Copied c,b,a downwards: 0x2010..0x2012 = "abc" again (reversed walk).
    assert_eq!(m.mem.read_bytes(0x2010, 3).unwrap(), b"abc");
    assert_eq!(m.cpu.regs[Reg32::Esi as usize], 0x2002u32.wrapping_sub(3));
}

#[test]
fn scasb_repne_finds_byte() {
    // Classic strlen idiom: repne scasb hunting for NUL.
    let mut m = machine(vec![0xF2, 0xAE]);
    m.mem.write_bytes(0x2000, b"hello\0").unwrap();
    m.cpu.regs[Reg32::Eax as usize] = 0; // AL = 0
    m.cpu.regs[Reg32::Edi as usize] = 0x2000;
    m.cpu.regs[Reg32::Ecx as usize] = 0xFFFF_FFFF;
    steps(&mut m, 1);
    // EDI one past the NUL, so strlen = 0xFFFFFFFF - ECX - 2... check via edi.
    assert_eq!(m.cpu.regs[Reg32::Edi as usize], 0x2006);
    assert_ne!(m.cpu.eflags & ZF, 0);
}

#[test]
fn rcl_rotates_through_carry() {
    // stc; mov al, 0b1000_0000; rcl al, 1 -> al = 0b0000_0001, CF=1.
    let mut m = machine(vec![0xF9, 0xB0, 0x80, 0xD0, 0xD0]);
    steps(&mut m, 3);
    assert_eq!(m.cpu.get8(Reg8::Al), 0x01);
    assert_ne!(m.cpu.eflags & CF, 0);
}

#[test]
fn rcr_rotates_back() {
    // stc; mov al, 1; rcr al, 1 -> al = 0b1000_0000, CF=1.
    let mut m = machine(vec![0xF9, 0xB0, 0x01, 0xD0, 0xD8]);
    steps(&mut m, 3);
    assert_eq!(m.cpu.get8(Reg8::Al), 0x80);
    assert_ne!(m.cpu.eflags & CF, 0);
}

#[test]
fn rol_ror_set_carry_from_rotated_bit() {
    // mov eax, 0x80000001; rol eax,1 -> 3, CF=1.
    let mut m = machine(vec![0xB8, 0x01, 0x00, 0x00, 0x80, 0xD1, 0xC0]);
    steps(&mut m, 2);
    assert_eq!(m.cpu.regs[0], 3);
    assert_ne!(m.cpu.eflags & CF, 0);
    // ror back: eax = 0x80000001, CF = msb = 1.
    let mut m = machine(vec![0xB8, 0x03, 0x00, 0x00, 0x00, 0xD1, 0xC8]);
    steps(&mut m, 2);
    assert_eq!(m.cpu.regs[0], 0x8000_0001);
}

#[test]
fn bt_memory_form_addresses_adjacent_dwords() {
    // bt [0x2000], eax with eax=35 tests bit 3 of dword at 0x2004.
    let mut m = machine(vec![0x0F, 0xA3, 0x05, 0x00, 0x20, 0x00, 0x00]);
    m.mem.write32(0x2004, 0b1000).unwrap();
    m.cpu.regs[0] = 35;
    steps(&mut m, 1);
    assert_ne!(m.cpu.eflags & CF, 0);
}

#[test]
fn bts_sets_and_reports() {
    // bts eax, 4 twice: first CF=0, then CF=1.
    let mut m = machine(vec![0x0F, 0xBA, 0xE8, 0x04, 0x0F, 0xBA, 0xE8, 0x04]);
    steps(&mut m, 1);
    assert_eq!(m.cpu.eflags & CF, 0);
    assert_eq!(m.cpu.regs[0], 0x10);
    steps(&mut m, 1);
    assert_ne!(m.cpu.eflags & CF, 0);
    assert_eq!(m.cpu.regs[0], 0x10);
}

#[test]
fn xadd_exchanges_and_adds() {
    // eax=5, ebx=7: xadd eax, ebx -> eax=12, ebx=5.
    let mut m = machine(vec![0x0F, 0xC1, 0xD8]);
    m.cpu.regs[0] = 5;
    m.cpu.regs[3] = 7;
    steps(&mut m, 1);
    assert_eq!(m.cpu.regs[0], 12);
    assert_eq!(m.cpu.regs[3], 5);
}

#[test]
fn cmpxchg_success_and_failure() {
    // eax=5, ebx=5, ecx=9: cmpxchg ebx, ecx -> ZF, ebx=9.
    let mut m = machine(vec![0x0F, 0xB1, 0xCB]);
    m.cpu.regs[0] = 5;
    m.cpu.regs[3] = 5;
    m.cpu.regs[1] = 9;
    steps(&mut m, 1);
    assert_ne!(m.cpu.eflags & ZF, 0);
    assert_eq!(m.cpu.regs[3], 9);
    // Mismatch: eax loads the destination.
    let mut m = machine(vec![0x0F, 0xB1, 0xCB]);
    m.cpu.regs[0] = 4;
    m.cpu.regs[3] = 5;
    m.cpu.regs[1] = 9;
    steps(&mut m, 1);
    assert_eq!(m.cpu.eflags & ZF, 0);
    assert_eq!(m.cpu.regs[0], 5);
    assert_eq!(m.cpu.regs[3], 5);
}

#[test]
fn bswap_reverses_bytes() {
    let mut m = machine(vec![0x0F, 0xC8]);
    m.cpu.regs[0] = 0x1234_5678;
    steps(&mut m, 1);
    assert_eq!(m.cpu.regs[0], 0x7856_3412);
}

#[test]
fn shld_shifts_in_from_source() {
    // eax=0xF0000000, ebx=0xA0000000: shld eax, ebx, 4 -> 0x0000000A.
    let mut m = machine(vec![0x0F, 0xA4, 0xD8, 0x04]);
    m.cpu.regs[0] = 0xF000_0000;
    m.cpu.regs[3] = 0xA000_0000;
    steps(&mut m, 1);
    assert_eq!(m.cpu.regs[0], 0x0000_000A);
}

#[test]
fn xlat_translates_through_table() {
    let mut m = machine(vec![0xD7]);
    m.mem.write_bytes(0x2000, &[0u8, 10, 20, 30, 40]).unwrap();
    m.cpu.regs[Reg32::Ebx as usize] = 0x2000;
    m.cpu.set8(Reg8::Al, 3);
    steps(&mut m, 1);
    assert_eq!(m.cpu.get8(Reg8::Al), 30);
}

#[test]
fn bound_passes_inside_and_traps_outside() {
    // bounds pair at 0x2000: [5, 10]; eax=7 passes.
    let mut m = machine(vec![0x62, 0x05, 0x00, 0x20, 0x00, 0x00]);
    m.mem.write32(0x2000, 5).unwrap();
    m.mem.write32(0x2004, 10).unwrap();
    m.cpu.regs[0] = 7;
    steps(&mut m, 1);
    // eax=12 traps.
    let mut m = machine(vec![0x62, 0x05, 0x00, 0x20, 0x00, 0x00]);
    m.mem.write32(0x2000, 5).unwrap();
    m.mem.write32(0x2004, 10).unwrap();
    m.cpu.regs[0] = 12;
    let StepEvent::Fault(f) = m.step() else {
        panic!()
    };
    assert_eq!(f, Fault::Trap(0x1000));
}

#[test]
fn sahf_lahf_round_trip() {
    // stc; lahf; clc; sahf restores CF.
    let mut m = machine(vec![0xF9, 0x9F, 0xF8, 0x9E]);
    steps(&mut m, 4);
    assert_ne!(m.cpu.eflags & CF, 0);
}

#[test]
fn popf_masks_to_settable_bits() {
    // push 0xFFFFFFFF; popf: only status+DF stick, reserved bit 1 set.
    let mut m = machine(vec![0x6A, 0xFF, 0x9D]);
    steps(&mut m, 2);
    let flags = m.cpu.eflags;
    assert_ne!(flags & (CF | ZF | SF | OF | DF), 0);
    assert_eq!(flags & !(fisec_x86::eflags::STATUS_MASK | DF | 0b10), 0);
}

#[test]
fn into_traps_only_on_overflow() {
    // mov eax, 0x7fffffff; inc eax (OF set); into -> trap.
    let mut m = machine(vec![0xB8, 0xFF, 0xFF, 0xFF, 0x7F, 0x40, 0xCE]);
    steps(&mut m, 2);
    let StepEvent::Fault(f) = m.step() else {
        panic!()
    };
    assert_eq!(f, Fault::Trap(0x1006));
    // Without overflow: no-op.
    let mut m = machine(vec![0x31, 0xC0, 0xCE, 0x90]);
    steps(&mut m, 3);
}

#[test]
fn salc_materializes_carry() {
    let mut m = machine(vec![0xF9, 0xD6, 0xF8, 0xD6]);
    steps(&mut m, 2);
    assert_eq!(m.cpu.get8(Reg8::Al), 0xFF);
    steps(&mut m, 2);
    assert_eq!(m.cpu.get8(Reg8::Al), 0x00);
}

#[test]
fn cpuid_and_rdtsc_are_deterministic() {
    let mut m = machine(vec![0x31, 0xC0, 0x0F, 0xA2, 0x0F, 0x31]);
    steps(&mut m, 2);
    assert_eq!(m.cpu.regs[0], 1); // max leaf
    steps(&mut m, 1);
    assert_eq!(m.cpu.regs[0], 3); // rdtsc reads the deterministic icount
    let mut m2 = machine(vec![0x31, 0xC0, 0x0F, 0xA2, 0x0F, 0x31]);
    steps(&mut m2, 3);
    assert_eq!(m2.cpu.regs[0], m.cpu.regs[0]);
}

#[test]
fn enter_builds_frame_like_push_mov_sub() {
    // enter 0x20, 0 == push ebp; mov ebp, esp; sub esp, 0x20.
    let mut m = machine(vec![0xC8, 0x20, 0x00, 0x00]);
    m.cpu.regs[Reg32::Ebp as usize] = 0xAAAA;
    let esp0 = m.cpu.regs[Reg32::Esp as usize];
    steps(&mut m, 1);
    assert_eq!(m.cpu.regs[Reg32::Ebp as usize], esp0 - 4);
    assert_eq!(m.cpu.regs[Reg32::Esp as usize], esp0 - 4 - 0x20);
    assert_eq!(m.mem.read32(esp0 - 4).unwrap(), 0xAAAA);
}

#[test]
fn fpu_opcodes_execute_as_integer_noops() {
    // fld/faddp sequences leave integer state untouched.
    let mut m = machine(vec![0xD9, 0x05, 0x00, 0x20, 0x00, 0x00, 0xDE, 0xC1, 0x40]);
    let regs0 = m.cpu.regs;
    steps(&mut m, 3);
    assert_eq!(m.cpu.regs[0], regs0[0] + 1); // only the inc changed eax
}

#[test]
fn eip_trace_ring_buffer() {
    let mut m = machine(vec![0x40, 0x40, 0x40, 0x40, 0x40]);
    m.enable_eip_trace(3);
    steps(&mut m, 5);
    assert_eq!(m.eip_trace(), vec![0x1002, 0x1003, 0x1004]);
    // Re-arming clears.
    m.enable_eip_trace(8);
    assert!(m.eip_trace().is_empty());
}

#[test]
fn self_modifying_code_through_rwx_never_runs_a_stale_decode() {
    // A program that patches its own upcoming instruction. Neither engine
    // may execute a decode of replaced bytes: not after the program's own
    // write into its rwx text, not after an injector poke, and not after a
    // restore rewinds either of them.
    let text = vec![
        0xC6, 0x05, 0x08, 0x10, 0x00, 0x00, 0x41, // mov byte [0x1008], 0x41
        0x90, // nop
        0x40, // <0x1008>: inc eax -> patched to inc ecx (0x41)
        0xCD, 0x80, // int 0x80
    ];
    let run = |m: &mut Machine| {
        assert_eq!(m.run_until_event(100), RunOutcome::Syscall(0x80));
        [Reg32::Eax, Reg32::Ecx, Reg32::Edx].map(|r| m.cpu.regs[r as usize])
    };
    for block_engine in [true, false] {
        let mut mem = Memory::new();
        mem.map(Region::with_data("rwx", 0x1000, text.clone(), Perms::RWX))
            .unwrap();
        let mut m = Machine::new(mem);
        m.set_block_engine(block_engine);
        m.cpu.eip = 0x1000;
        let snap = m.snapshot();
        assert_eq!(run(&mut m), [0, 1, 0], "block engine: {block_engine}");
        // Rewind to the pristine bytes, then poke the store's immediate so
        // it patches in `inc edx` instead.
        m.restore(&snap);
        assert_eq!(m.mem.peek8(0x1008).unwrap(), 0x40);
        m.mem.poke8(0x1006, 0x42).unwrap();
        assert_eq!(run(&mut m), [0, 0, 1], "block engine: {block_engine}");
        // Rewind again: the poke is undone, and so is every decode of it.
        m.restore(&snap);
        assert_eq!(run(&mut m), [0, 1, 0], "block engine: {block_engine}");
    }
}
