//! Unit tests for the VM, using hand-assembled programs (independent of the
//! frontend and phases).

use crate::bytecode::*;
use crate::vm::{Value, Vm, VmError, VmOptions};
use mini_ir::Name;
use std::collections::HashMap;
use std::sync::Arc;

fn fun(name: &str, n_params: u16, n_locals: u16, code: Vec<Insn>) -> Function {
    Function {
        name: name.into(),
        n_params,
        n_locals,
        code,
        handlers: Vec::new(),
    }
}

/// Assemble and link a program. `method_names` assigns slot ids in order,
/// so `CallVirtual(0, ..)` calls `method_names[0]`.
fn prog(
    classes: Vec<VmClass>,
    functions: Vec<Function>,
    entry: Option<FnId>,
    method_names: Vec<Name>,
) -> Program {
    let mut p = Program {
        classes,
        functions: functions.into_iter().map(Arc::new).collect(),
        entry,
        method_names,
    };
    p.link();
    p
}

#[test]
fn arithmetic_and_return() {
    let p = prog(
        vec![],
        vec![fun(
            "f",
            0,
            0,
            vec![Insn::ConstInt(6), Insn::ConstInt(7), Insn::Mul, Insn::Ret],
        )],
        Some(0),
        vec![],
    );
    let mut vm = Vm::new(&p);
    let v = vm.run_main().unwrap();
    assert!(matches!(v, Value::Int(42)));
}

fn sum_loop_program() -> Program {
    // sum of 0..10 == 45
    let code = vec![
        Insn::ConstInt(0),     // 0
        Insn::Store(0),        // 1  i = 0
        Insn::ConstInt(0),     // 2
        Insn::Store(1),        // 3  acc = 0
        Insn::Load(0),         // 4  loop:
        Insn::ConstInt(10),    // 5
        Insn::CmpLt,           // 6
        Insn::JumpIfFalse(17), // 7
        Insn::Load(1),         // 8
        Insn::Load(0),         // 9
        Insn::Add,             // 10
        Insn::Store(1),        // 11 acc += i
        Insn::Load(0),         // 12
        Insn::ConstInt(1),     // 13
        Insn::Add,             // 14
        Insn::Store(0),        // 15 i += 1
        Insn::Jump(4),         // 16
        Insn::Load(1),         // 17
        Insn::Ret,             // 18
    ];
    prog(vec![], vec![fun("sum", 0, 2, code)], Some(0), vec![])
}

#[test]
fn loops_and_locals() {
    let p = sum_loop_program();
    let mut vm = Vm::new(&p);
    let v = vm.run_main().unwrap();
    assert!(matches!(v, Value::Int(45)), "{v:?}");
}

#[test]
fn fusion_rewrites_hot_pairs_without_changing_results() {
    let p = sum_loop_program();
    // Fast mode fuses Load;ConstInt and CmpLt;JumpIfFalse in the loop
    // header; result and fuel-per-logical-insn accounting must not change.
    let mut fast = Vm::new(&p);
    let mut reference = Vm::with_options(&p, VmOptions::reference());
    let vf = fast.run_main().unwrap();
    let vr = reference.run_main().unwrap();
    assert!(matches!(vf, Value::Int(45)), "{vf:?}");
    assert!(matches!(vr, Value::Int(45)), "{vr:?}");
    assert!(fast.stats.fused_retired > 0, "loop pairs should fuse");
    assert_eq!(reference.stats.fused_retired, 0);
    // Fused execution dispatches fewer times but charges identical fuel.
    assert_eq!(fast.fuel, reference.fuel);
    assert!(fast.stats.insns_retired < reference.stats.insns_retired);
}

#[test]
fn reference_mode_traps_on_fast_only_opcodes() {
    // Only fast-mode preparation produces superinstructions and IC sites;
    // the frozen reference interpreter reports them as a structured trap.
    let p = prog(
        vec![],
        vec![fun("f", 0, 2, vec![Insn::LoadLoad(0, 1), Insn::Ret])],
        Some(0),
        vec![],
    );
    let mut vm = Vm::with_options(&p, VmOptions::reference());
    match vm.run_main() {
        Err(VmError::Trap(m)) => assert!(m.contains("LoadLoad(0, 1)"), "{m}"),
        other => panic!("expected trap, got {other:?}"),
    }
}

#[test]
fn exceptions_unwind_to_handlers() {
    let mut f = fun(
        "risky",
        0,
        1,
        vec![
            Insn::ConstStr(Name::intern("boom")),
            Insn::Throw,
            // handler:
            Insn::Store(0),
            Insn::Load(0),
            Insn::ConstStr(Name::intern(" caught")),
            Insn::Concat,
            Insn::Ret,
        ],
    );
    f.handlers.push(Handler {
        start: 0,
        end: 2,
        target: 2,
    });
    let p = prog(vec![], vec![f], Some(0), vec![]);
    let mut vm = Vm::new(&p);
    let v = vm.run_main().unwrap();
    match v {
        Value::Str(s) => assert_eq!(&*s, "boom caught"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn uncaught_exceptions_propagate_across_calls() {
    let thrower = fun(
        "thrower",
        0,
        0,
        vec![Insn::ConstStr(Name::intern("oops")), Insn::Throw],
    );
    let caller = fun("caller", 0, 0, vec![Insn::CallStatic(0, 0), Insn::Ret]);
    let p = prog(vec![], vec![thrower, caller], Some(1), vec![]);
    for opts in [VmOptions::fast(), VmOptions::reference()] {
        let mut vm = Vm::with_options(&p, opts);
        match vm.run_main() {
            Err(VmError::Uncaught(Value::Str(s))) => assert_eq!(&*s, "oops"),
            other => panic!("expected uncaught, got {other:?}"),
        }
    }
}

fn dispatch_program() -> Program {
    // class A { def get(): Int = 1 }; class B extends A { override get = 2 }
    let get_name = Name::intern("get");
    let a_get = fun("A.get", 1, 1, vec![Insn::ConstInt(1), Insn::Ret]);
    let b_get = fun("B.get", 1, 1, vec![Insn::ConstInt(2), Insn::Ret]);
    let main = fun(
        "main",
        0,
        0,
        vec![Insn::New(1), Insn::CallVirtual(0, 1), Insn::Ret],
    );
    let mut a = VmClass::new("A", vec![0], 0);
    a.vtable.insert(get_name, 0);
    let mut b = VmClass::new("B", vec![1, 0], 0);
    b.vtable.insert(get_name, 1);
    prog(
        vec![a, b],
        vec![a_get, b_get, main],
        Some(2),
        vec![get_name],
    )
}

#[test]
fn objects_fields_and_virtual_dispatch() {
    let p = dispatch_program();
    for opts in [VmOptions::fast(), VmOptions::reference()] {
        let mut vm = Vm::with_options(&p, opts);
        let v = vm.run_main().unwrap();
        assert!(matches!(v, Value::Int(2)), "B overrides A: {v:?}");
    }
    assert!(p.is_subclass(1, 0));
    assert!(!p.is_subclass(0, 1));
}

#[test]
fn ic_hits_on_monomorphic_sites() {
    // Call b.get() in a loop: the first call misses and fills the cache,
    // every later call hits.
    let get_name = Name::intern("get");
    let b_get = fun("B.get", 1, 1, vec![Insn::ConstInt(2), Insn::Ret]);
    let code = vec![
        Insn::New(0),            // 0  b = new B
        Insn::Store(0),          // 1
        Insn::ConstInt(0),       // 2  i = 0
        Insn::Store(1),          // 3
        Insn::Load(1),           // 4  loop:
        Insn::ConstInt(8),       // 5
        Insn::CmpLt,             // 6
        Insn::JumpIfFalse(16),   // 7
        Insn::Load(0),           // 8
        Insn::CallVirtual(0, 1), // 9
        Insn::Pop,               // 10
        Insn::Load(1),           // 11
        Insn::ConstInt(1),       // 12
        Insn::Add,               // 13
        Insn::Store(1),          // 14
        Insn::Jump(4),           // 15
        Insn::ConstUnit,         // 16
        Insn::Ret,               // 17
    ];
    let mut b = VmClass::new("B", vec![0], 0);
    b.vtable.insert(get_name, 0);
    let p = prog(
        vec![b],
        vec![b_get, fun("main", 0, 2, code)],
        Some(1),
        vec![get_name],
    );
    let mut vm = Vm::new(&p);
    vm.run_main().unwrap();
    assert_eq!(vm.stats.ic_misses, 1, "{:?}", vm.stats);
    assert_eq!(vm.stats.ic_hits, 7, "{:?}", vm.stats);
    assert!(vm.stats.ic_hit_rate() > 0.8);
}

#[test]
fn field_roundtrip() {
    // obj.f = 7; return obj.f
    let main = fun(
        "main",
        0,
        1,
        vec![
            Insn::New(0),
            Insn::Store(0),
            Insn::Load(0),
            Insn::ConstInt(7),
            Insn::PutField(0),
            Insn::Load(0),
            Insn::GetField(0),
            Insn::Ret,
        ],
    );
    let mut c = VmClass::new("C", vec![0], 1);
    c.field_resolve = HashMap::from([(0, 0)]);
    let p = prog(vec![c], vec![main], Some(0), vec![]);
    for opts in [VmOptions::fast(), VmOptions::reference()] {
        let mut vm = Vm::with_options(&p, opts);
        assert!(matches!(vm.run_main().unwrap(), Value::Int(7)));
    }
}

#[test]
fn arrays_bounds_and_division_throw() {
    let p = prog(
        vec![],
        vec![fun(
            "f",
            0,
            0,
            vec![
                Insn::ConstInt(2),
                Insn::NewArray,
                Insn::ConstInt(5),
                Insn::ALoad,
                Insn::Ret,
            ],
        )],
        Some(0),
        vec![],
    );
    let mut vm = Vm::new(&p);
    match vm.run_main() {
        Err(VmError::Uncaught(Value::Str(s))) => {
            assert!(s.contains("ArrayIndexOutOfBounds"))
        }
        other => panic!("expected bounds exception, got {other:?}"),
    }
    let p2 = prog(
        vec![],
        vec![fun(
            "g",
            0,
            0,
            vec![Insn::ConstInt(1), Insn::ConstInt(0), Insn::Div, Insn::Ret],
        )],
        Some(0),
        vec![],
    );
    let mut vm2 = Vm::new(&p2);
    assert!(matches!(
        vm2.run_main(),
        Err(VmError::Uncaught(Value::Str(_)))
    ));
}

#[test]
fn println_is_captured_and_fuel_guards_loops() {
    let p = prog(
        vec![],
        vec![fun(
            "spin",
            0,
            0,
            vec![
                Insn::ConstStr(Name::intern("hello")),
                Insn::Println,
                Insn::Pop,
                Insn::Jump(0),
            ],
        )],
        Some(0),
        vec![],
    );
    for opts in [VmOptions::fast(), VmOptions::reference()] {
        let mut vm = Vm::with_options(&p, opts);
        vm.fuel = 10_000;
        match vm.run_main() {
            Err(VmError::Trap(m)) => assert!(m.contains("fuel")),
            other => panic!("expected fuel trap, got {other:?}"),
        }
        assert!(!vm.out.is_empty());
        assert_eq!(vm.out[0], "hello");
    }
}

#[test]
fn guest_recursion_traps_at_depth_budget_in_both_modes() {
    // f() calls itself forever: must degrade to a structured trap at the
    // same guest depth in flat and recursive modes, never a host overflow.
    let p = prog(
        vec![],
        vec![fun("f", 0, 0, vec![Insn::CallStatic(0, 0), Insn::Ret])],
        Some(0),
        vec![],
    );
    let mut msgs = Vec::new();
    for base in [VmOptions::fast(), VmOptions::reference()] {
        let opts = VmOptions {
            max_frames: 64,
            ..base
        };
        let mut vm = Vm::with_options(&p, opts);
        match vm.run_main() {
            Err(VmError::Trap(m)) => {
                assert!(m.contains("max call depth 64"), "{m}");
                msgs.push(m);
            }
            other => panic!("expected depth trap, got {other:?}"),
        }
        assert_eq!(vm.stats.peak_frames, 64, "budget reached: {:?}", vm.stats);
    }
    assert_eq!(msgs[0], msgs[1]);

    // Default budget: deep recursion still traps (structured) in fast mode.
    let mut vm = Vm::new(&p);
    match vm.run_main() {
        Err(VmError::Trap(m)) => assert!(m.contains("max call depth"), "{m}"),
        other => panic!("expected depth trap, got {other:?}"),
    }
}

#[test]
fn type_tests_and_null_casts() {
    let p = prog(
        vec![],
        vec![fun(
            "f",
            0,
            0,
            vec![
                Insn::ConstInt(1),
                Insn::IsInstance(TypeTest::Int),
                Insn::ConstStr(Name::intern("x")),
                Insn::IsInstance(TypeTest::Int),
                Insn::Not,
                Insn::CmpEq, // true == true
                Insn::Ret,
            ],
        )],
        Some(0),
        vec![],
    );
    let mut vm = Vm::new(&p);
    assert!(matches!(vm.run_main().unwrap(), Value::Bool(true)));

    // null passes reference casts.
    let p2 = prog(
        vec![],
        vec![fun(
            "g",
            0,
            0,
            vec![Insn::ConstNull, Insn::Cast(TypeTest::Str), Insn::Ret],
        )],
        Some(0),
        vec![],
    );
    let mut vm2 = Vm::new(&p2);
    assert!(matches!(vm2.run_main().unwrap(), Value::Null));

    // but a bad cast throws.
    let p3 = prog(
        vec![],
        vec![fun(
            "h",
            0,
            0,
            vec![Insn::ConstInt(3), Insn::Cast(TypeTest::Str), Insn::Ret],
        )],
        Some(0),
        vec![],
    );
    let mut vm3 = Vm::new(&p3);
    assert!(matches!(
        vm3.run_main(),
        Err(VmError::Uncaught(Value::Str(_)))
    ));
}

#[test]
fn universal_methods_have_defaults() {
    let eq = Name::intern("equals");
    let p = prog(
        vec![VmClass::new("C", vec![0], 0)],
        vec![fun(
            "f",
            0,
            1,
            vec![
                Insn::New(0),
                Insn::Store(0),
                Insn::Load(0),
                Insn::Load(0),
                Insn::CallVirtual(0, 2),
                Insn::Ret,
            ],
        )],
        Some(0),
        vec![eq],
    );
    for opts in [VmOptions::fast(), VmOptions::reference()] {
        let mut vm = Vm::with_options(&p, opts);
        assert!(matches!(vm.run_main().unwrap(), Value::Bool(true)));
    }
}

#[test]
fn fuse_respects_jump_and_handler_barriers() {
    // Jump target 2 lands between Load(0) at 1 and Load(1) at 2: that pair
    // must NOT fuse (a branch would land mid-superinstruction). Fusion is
    // free to restart *at* the target, so (2,3) fuses and the Jump operand
    // is remapped through the compaction.
    let code = vec![
        Insn::Jump(2), // 0
        Insn::Load(0), // 1 (dead)
        Insn::Load(1), // 2 <- target
        Insn::Load(0), // 3
        Insn::Load(1), // 4
        Insn::Add,     // 5
        Insn::Ret,     // 6
    ];
    let (fused, handlers) = crate::codegen::fuse(&code, &[]);
    assert!(handlers.is_empty());
    assert_eq!(
        fused,
        vec![
            Insn::Jump(2),
            Insn::Load(0),
            Insn::LoadLoad(1, 0),
            Insn::Load(1),
            Insn::Add,
            Insn::Ret,
        ]
    );

    // A handler end boundary between the halves also blocks fusion, and
    // handler ranges are remapped through the compaction.
    let code = vec![
        Insn::Load(0),     // 0
        Insn::ConstInt(1), // 1  fuses with 0
        Insn::Load(0),     // 2  last covered insn
        Insn::Load(1),     // 3  first uncovered insn — must not fuse with 2
        Insn::Ret,         // 4
    ];
    let h = Handler {
        start: 0,
        end: 3,
        target: 4,
    };
    let (fused, handlers) = crate::codegen::fuse(&code, &[h]);
    assert_eq!(
        fused,
        vec![
            Insn::LoadConst(0, 1),
            Insn::Load(0),
            Insn::Load(1),
            Insn::Ret,
        ]
    );
    assert_eq!(
        handlers,
        vec![Handler {
            start: 0,
            end: 2,
            target: 3,
        }]
    );
}

/// Runs `p`'s `main` in both modes under `max_frames` and asserts they agree
/// on the rendered outcome and the output; returns those and the peak frame
/// depth of each mode (fast first).
fn run_both_modes(p: &Program, max_frames: u32) -> (String, Vec<String>, [u64; 2]) {
    let mut runs = Vec::new();
    let mut peaks = [0; 2];
    for (i, base) in [VmOptions::fast(), VmOptions::reference()]
        .into_iter()
        .enumerate()
    {
        let mut vm = Vm::with_options(p, VmOptions { max_frames, ..base });
        let outcome = match vm.run_main() {
            Ok(v) => format!("ok: {v}"),
            Err(e) => format!("err: {e}"),
        };
        runs.push((outcome, vm.out));
        peaks[i] = vm.stats.peak_frames;
    }
    assert_eq!(runs[0], runs[1], "fast and reference runs diverged");
    let (outcome, out) = runs.swap_remove(0);
    (outcome, out, peaks)
}

#[test]
fn neg_wraps_on_the_minimum_int_in_both_modes() {
    // -i64::MIN overflows; like every other arithmetic arm it wraps, so a
    // debug build prints what a release build prints instead of panicking.
    let p = prog(
        vec![],
        vec![fun(
            "main",
            0,
            0,
            vec![
                Insn::ConstInt(i64::MIN),
                Insn::Neg,
                Insn::Println,
                Insn::Pop,
                Insn::ConstInt(5),
                Insn::Neg,
                Insn::Ret,
            ],
        )],
        Some(0),
        vec![],
    );
    let (outcome, out, _) = run_both_modes(&p, crate::vm::DEFAULT_MAX_FRAMES);
    assert_eq!(outcome, "ok: -5");
    assert_eq!(out, vec!["-9223372036854775808".to_string()]);
}

#[test]
fn caller_two_frames_up_catches_with_its_frame_window_intact() {
    // main -> mid -> thrower; thrower throws with operands of its own and
    // mid's pending, and main's handler catches. Afterwards main's locals
    // must hold what it stored, and an operand it pushes in the handler
    // must survive a further call whose window reuses the unwound frames'
    // stack space (and whose padding locals start out as Unit).
    let (main_id, mid_id, thrower_id, leaf_id) = (0, 1, 2, 3);
    let mut main = fun(
        "main",
        0,
        3,
        vec![
            Insn::ConstInt(7),
            Insn::Store(0),
            Insn::ConstInt(11),
            Insn::Store(1),
            Insn::ConstInt(5),            // 4: try {
            Insn::CallStatic(mid_id, 1),  // 5:   mid(5)
            Insn::Ret,                    // 6: }
            Insn::Store(2),               // 7: catch (e) { l2 = e
            Insn::ConstInt(1000),         // 8: pending operand
            Insn::ConstInt(3),            //
            Insn::CallStatic(leaf_id, 1), //    leaf(3) = 9
            Insn::Add,                    //    1000 + 9
            Insn::Load(0),                //
            Insn::Add,                    //    + l0
            Insn::Load(1),                //
            Insn::Add,                    //    + l1
            Insn::Load(2),                //
            Insn::Println,                //    println(e)
            Insn::Pop,                    //
            Insn::Ret,                    // }
        ],
    );
    main.handlers.push(Handler {
        start: 4,
        end: 6,
        target: 7,
    });
    let mid = fun(
        "mid",
        1,
        2,
        vec![
            Insn::Load(0),
            Insn::Store(1),
            Insn::ConstInt(40),
            Insn::Load(1),
            Insn::CallStatic(thrower_id, 1),
            Insn::Add,
            Insn::Ret,
        ],
    );
    let thrower = fun(
        "thrower",
        1,
        3,
        vec![
            Insn::ConstInt(9),
            Insn::Store(2),
            Insn::Load(0),
            Insn::Load(2),
            Insn::Add,
            Insn::ConstStr(Name::intern("boom")),
            Insn::Throw,
        ],
    );
    let leaf = fun(
        "leaf",
        1,
        3,
        vec![
            Insn::Load(2),
            Insn::IsInstance(TypeTest::Unit),
            Insn::Println,
            Insn::Pop,
            Insn::Load(0),
            Insn::Store(1),
            Insn::Load(1),
            Insn::ConstInt(2),
            Insn::Mul,
            Insn::Store(2),
            Insn::Load(2),
            Insn::Load(0),
            Insn::Add,
            Insn::Ret,
        ],
    );
    let p = prog(
        vec![],
        vec![main, mid, thrower, leaf],
        Some(main_id),
        vec![],
    );
    let (outcome, out, peaks) = run_both_modes(&p, crate::vm::DEFAULT_MAX_FRAMES);
    assert_eq!(outcome, "ok: 1027");
    assert_eq!(out, vec!["true".to_string(), "boom".to_string()]);
    assert_eq!(peaks, [3, 3]);
}

#[test]
fn call_traps_keep_their_text_in_both_modes() {
    // `mid` makes the faulting call one frame down, so each trap names the
    // callee (arity, abstract) from inside a running frame.
    let trap_of = |callee: Function, argc: u16| {
        let main = fun("main", 0, 0, vec![Insn::CallStatic(1, 0), Insn::Ret]);
        let mut code: Vec<Insn> = (0..argc).map(|i| Insn::ConstInt(i as i64)).collect();
        code.extend([Insn::CallStatic(2, argc), Insn::Ret]);
        let mid = fun("mid", 0, 1, code);
        let p = prog(vec![], vec![main, mid, callee], Some(0), vec![]);
        let (outcome, _, peaks) = run_both_modes(&p, crate::vm::DEFAULT_MAX_FRAMES);
        // Neither mode counts the frame of a callee it refuses to enter.
        assert_eq!(peaks, [2, 2]);
        outcome
    };
    assert_eq!(
        trap_of(fun("two", 2, 2, vec![Insn::Load(0), Insn::Ret]), 1),
        "err: vm trap: arity mismatch calling `two`: expected 2, got 1"
    );
    assert_eq!(
        trap_of(fun("A.abs", 1, 1, vec![]), 1),
        "err: vm trap: call to abstract method `A.abs`"
    );

    // The entry call checks the same way.
    let p = prog(
        vec![],
        vec![fun("one", 1, 3, vec![Insn::Load(0), Insn::Ret])],
        Some(0),
        vec![],
    );
    for opts in [VmOptions::fast(), VmOptions::reference()] {
        let mut vm = Vm::with_options(&p, opts);
        match vm.call(0, vec![]) {
            Err(e) => assert_eq!(
                e.to_string(),
                "vm trap: arity mismatch calling `one`: expected 1, got 0"
            ),
            other => panic!("expected arity trap, got {other:?}"),
        }
        assert_eq!(vm.stats.peak_frames, 0, "{opts:?}: no frame entered");
        assert!(matches!(vm.call(0, vec![Value::Int(4)]), Ok(Value::Int(4))));
    }
}

#[test]
fn fast_call_underflow_counts_only_the_callers_operands() {
    // `f` has two locals below one operand when it calls `two` with two
    // arguments: the locals are not operands, so the call traps, naming
    // the caller. Codegen never emits such code.
    let main = fun("main", 0, 0, vec![Insn::CallStatic(1, 0), Insn::Ret]);
    let f = fun(
        "f",
        0,
        2,
        vec![Insn::ConstInt(1), Insn::CallStatic(2, 2), Insn::Ret],
    );
    let two = fun("two", 2, 2, vec![Insn::Load(0), Insn::Ret]);
    let p = prog(vec![], vec![main, f, two], Some(0), vec![]);
    let (outcome, _, peaks) = run_both_modes(&p, crate::vm::DEFAULT_MAX_FRAMES);
    assert_eq!(outcome, "err: vm trap: stack underflow in `f`");
    assert_eq!(peaks, [2, 2]);
    // The VM stays usable after a trap.
    for opts in [VmOptions::fast(), VmOptions::reference()] {
        let mut vm = Vm::with_options(&p, opts);
        assert!(vm.run_main().is_err());
        assert!(matches!(
            vm.call(2, vec![Value::Int(8), Value::Unit]),
            Ok(Value::Int(8))
        ));
    }
}

#[test]
fn recursion_near_the_frame_budget_keeps_each_window() {
    // rec(n) = if n <= 0 then 0 else l1 + rec(l2) + l2 with l1 = 10n and
    // l2 = n - 1 stored in locals beyond the parameter; l1 waits on the
    // operand stack across the recursive call and l2 is re-read after it.
    let rec = fun(
        "rec",
        1,
        3,
        vec![
            Insn::Load(0),          // 0
            Insn::ConstInt(0),      // 1
            Insn::CmpLe,            // 2
            Insn::JumpIfFalse(6),   // 3
            Insn::ConstInt(0),      // 4
            Insn::Ret,              // 5
            Insn::Load(0),          // 6
            Insn::ConstInt(10),     // 7
            Insn::Mul,              // 8
            Insn::Store(1),         // 9
            Insn::Load(0),          // 10
            Insn::ConstInt(1),      // 11
            Insn::Sub,              // 12
            Insn::Store(2),         // 13
            Insn::Load(1),          // 14
            Insn::Load(2),          // 15
            Insn::CallStatic(0, 1), // 16
            Insn::Add,              // 17
            Insn::Load(2),          // 18
            Insn::Add,              // 19
            Insn::Ret,              // 20
        ],
    );
    let budget = 64u32;
    let with_main = |n: i64| {
        let main = fun(
            "main",
            0,
            1,
            vec![Insn::ConstInt(n), Insn::CallStatic(0, 1), Insn::Ret],
        );
        prog(vec![], vec![rec.clone(), main], Some(1), vec![])
    };
    // main plus rec(n)..rec(0) is n + 2 frames: the deepest run that fits.
    let n = budget as i64 - 2;
    let expected = (1..=n).map(|k| 11 * k - 1).sum::<i64>();
    let (outcome, _, peaks) = run_both_modes(&with_main(n), budget);
    assert_eq!(outcome, format!("ok: {expected}"));
    assert_eq!(peaks, [budget as u64; 2]);

    // One level deeper traps at the budget, identically in both modes.
    let (outcome, _, peaks) = run_both_modes(&with_main(n + 1), budget);
    assert_eq!(outcome, "err: vm trap: max call depth 64 exceeded");
    assert_eq!(peaks, [budget as u64; 2]);
}
