//! Writing traces to files.

use crate::error::TraceError;
use crate::event::{ProgramTrace, TraceSet};
use crate::format;
use std::path::Path;

/// Writes a program trace to a file (created or truncated).
pub fn write_program_file(path: impl AsRef<Path>, trace: &ProgramTrace) -> Result<(), TraceError> {
    std::fs::write(path, format::encode_program(trace))?;
    Ok(())
}

/// Writes a translated trace set to a file (created or truncated).
pub fn write_set_file(path: impl AsRef<Path>, set: &TraceSet) -> Result<(), TraceError> {
    std::fs::write(path, format::encode_set(set))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PhaseProgram;
    use extrap_time::DurationNs;

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("extrap-writer-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut p = PhaseProgram::new(2);
        p.push_uniform_phase(DurationNs(10));
        let pt = p.record();

        let path = dir.join("t.xtrp");
        write_program_file(&path, &pt).unwrap();
        let back = format::decode_program(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(pt, back);

        let ts = crate::translate(&pt, Default::default()).unwrap();
        let path = dir.join("t.xtps");
        write_set_file(&path, &ts).unwrap();
        let back = format::decode_set(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(ts, back);
        std::fs::remove_dir_all(&dir).ok();
    }
}
