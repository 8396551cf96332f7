//! Zero-allocation discipline on the steady-state dispatch path.
//!
//! The PR 3 executor work promises that dispatching an event through a
//! *warm* stack allocates nothing in the dispatch machinery itself: the
//! [`EffectSink`] is reused, the stack's scratch and emit buffers are
//! reused, and the only allocations left on a cast are the inherent ones
//! (building the wire frame's header block).  This test pins that down
//! with a counting global allocator:
//!
//! * a `Tick` or stray-`Timer` dispatch on a warm stack allocates **zero**
//!   bytes;
//! * a batch of N casts allocates exactly N × the single-cast cost — no
//!   per-event machinery allocations appear at any batch size;
//! * `StackStats::dispatch_buf_grows` stays at zero once warm.
//!
//! Everything runs in a single `#[test]` so no concurrent test thread can
//! pollute the counter.

use bytes::Bytes;
use horus::layers::registry::build_stack;
use horus::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn cast_input(stack: &Stack, k: u8) -> StackInput {
    StackInput::FromApp(Down::Cast(stack.new_message(Bytes::from(vec![k; 16]))))
}

#[test]
fn steady_state_dispatch_does_not_allocate() {
    let mut stack = build_stack(EndpointAddr::new(1), "SEQNO:COM", StackConfig::default()).unwrap();
    let mut sink = EffectSink::with_capacity(64);
    stack.init(&mut sink);
    sink.clear();

    // Warm up: grow the sink, scratch, and emit buffers to steady state.
    for k in 0..32u8 {
        stack.handle_into(cast_input(&stack, k), &mut sink);
        sink.clear();
    }
    stack.handle_into(StackInput::Tick { now: SimTime::from_nanos(1) }, &mut sink);
    stack.handle_into(
        StackInput::Timer { layer: 0, token: 99, now: SimTime::from_nanos(2) },
        &mut sink,
    );
    sink.clear();

    // 1. Pure dispatch machinery (tick, stray timer): zero allocations.
    let before = allocs();
    stack.handle_into(StackInput::Tick { now: SimTime::from_nanos(3) }, &mut sink);
    stack.handle_into(
        StackInput::Timer { layer: 0, token: 7, now: SimTime::from_nanos(4) },
        &mut sink,
    );
    let tick_allocs = allocs() - before;
    sink.clear();
    assert_eq!(tick_allocs, 0, "tick/timer dispatch on a warm stack must not allocate");

    // 2. Single warm cast: only the inherent wire-building allocations.
    let input = cast_input(&stack, 40);
    let before = allocs();
    stack.handle_into(input, &mut sink);
    let per_cast = allocs() - before;
    sink.clear();
    assert!(per_cast > 0, "a cast builds a wire frame; expected some inherent allocations");

    // 3. A batch of N casts costs exactly N single casts: the machinery
    //    (sink, scratch, emit, batch loop) adds nothing per event.
    const N: u64 = 64;
    let mut inputs: Vec<StackInput> = Vec::with_capacity(N as usize);
    for k in 0..N {
        inputs.push(cast_input(&stack, (k % 251) as u8));
    }
    let before = allocs();
    stack.handle_batch(inputs.drain(..), &mut sink);
    let batch_allocs = allocs() - before;
    assert_eq!(
        batch_allocs,
        N * per_cast,
        "batch of {N} casts must cost exactly {N} x the single-cast inherent allocations"
    );
    assert_eq!(sink.len() as u64, N, "one NetCast effect per input");
    sink.clear();

    // 4. The stack's own buffers reached steady state long ago.
    let grows_at_warm = stack.stats().dispatch_buf_grows;
    for k in 0..64u8 {
        stack.handle_into(cast_input(&stack, k), &mut sink);
        sink.clear();
    }
    assert_eq!(
        stack.stats().dispatch_buf_grows,
        grows_at_warm,
        "scratch/emit buffers must not grow after warmup"
    );
}
