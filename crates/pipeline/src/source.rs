//! Record supply for the cycle loop.
//!
//! The core is indifferent to where its dynamic records come from: a fully
//! materialized trace (the classic path) or a bounded sliding window over a
//! live emulator (the streaming path). `RecordSource` is that seam. Records
//! are small `Copy` values, so `get` returns them by value — the stream
//! variant cannot hand out references into a window it is about to recycle.

use dide_emu::{DynInst, TraceStream};

/// Where the cycle loop reads dynamic instructions from.
#[derive(Debug)]
pub(crate) enum RecordSource<'a, 'p> {
    /// A fully materialized trace: every record resident for the whole run.
    Slice(&'a [DynInst]),
    /// A streaming window over a live emulator: fetch pulls epochs into
    /// existence on demand and [`RecordSource::release_before`] recycles
    /// them once the ROB has drained past.
    Stream(&'a mut TraceStream<'p>),
}

impl RecordSource<'_, '_> {
    /// The record with sequence number `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is past the end of the trace, or (for a stream)
    /// behind the released window — the core only asks for records between
    /// the commit head and the fetch position, which the window spans.
    pub(crate) fn get(&mut self, seq: u64) -> DynInst {
        match self {
            RecordSource::Slice(records) => records[seq as usize],
            RecordSource::Stream(stream) => {
                stream.get(seq).expect("in-flight seqs are within the trace")
            }
        }
    }

    /// The record at `seq`, or `None` once the trace is exhausted. For a
    /// stream this produces epochs as needed, so exhaustion is discovered
    /// exactly when fetch reaches it.
    pub(crate) fn try_get(&mut self, seq: u64) -> Option<DynInst> {
        match self {
            RecordSource::Slice(records) => records.get(seq as usize).copied(),
            RecordSource::Stream(stream) => stream.get(seq),
        }
    }

    /// Whether `pos` is past the end of the trace (producing up to it for
    /// a stream, exactly like [`RecordSource::try_get`]).
    pub(crate) fn end_reached(&mut self, pos: u64) -> bool {
        match self {
            RecordSource::Slice(records) => pos >= records.len() as u64,
            RecordSource::Stream(stream) => stream.end_reached(pos),
        }
    }

    /// Tells the source no record before `seq` will be read again. A slice
    /// ignores it; a stream recycles every epoch that ends at or before
    /// `seq` into its spare-buffer pool.
    pub(crate) fn release_before(&mut self, seq: u64) {
        match self {
            RecordSource::Slice(_) => {}
            RecordSource::Stream(stream) => stream.release_before(seq),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dide_emu::Emulator;
    use dide_isa::{ProgramBuilder, Reg};

    fn program(iters: i64) -> dide_isa::Program {
        let mut b = ProgramBuilder::new("src");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, iters);
        let top = b.label();
        b.bind(top);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, top);
        b.out(Reg::T0);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn slice_and_stream_agree_record_for_record() {
        let p = program(100);
        let trace = Emulator::new(&p).run().unwrap();
        let mut slice = RecordSource::Slice(trace.records());
        let mut stream_inner = TraceStream::new(&p, 32);
        let mut stream = RecordSource::Stream(&mut stream_inner);
        for seq in 0..trace.len() as u64 {
            assert_eq!(slice.try_get(seq), stream.try_get(seq), "seq {seq}");
            // Release as a commit stage would; later reads stay ahead.
            stream.release_before(seq);
            slice.release_before(seq);
        }
        let end = trace.len() as u64;
        assert!(slice.end_reached(end));
        assert!(stream.end_reached(end));
        assert!(!slice.end_reached(end - 1));
    }
}
