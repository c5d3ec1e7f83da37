//! What more than one of the reader's integration tests needs.

use std::sync::{Condvar, Mutex};

use rgz_io::{FileReader, SharedFileReader};

#[allow(dead_code)]
#[path = "../../../../tests/common/chunk_table.rs"]
mod chunk_table;
#[allow(unused_imports)]
pub use chunk_table::chunk_table;
#[allow(dead_code)]
#[path = "../../../../tests/common/held_windows.rs"]
mod held_windows;
#[allow(unused_imports)]
pub use held_windows::held_windows;

/// A file whose first bytes are held back until `later_reads` reads of what
/// follows have begun: the pass cannot commit its first chunk before the
/// decodes issued ahead of it have run, window unknown, whatever the build
/// profile and the machine make of the race between them otherwise.  Only for
/// readers with workers enough to issue that many reads beside the first.
pub struct FirstChunkHeldBack {
    data: Vec<u8>,
    later_reads: usize,
    begun: Mutex<usize>,
    another: Condvar,
}

impl FirstChunkHeldBack {
    pub fn shared(data: Vec<u8>, later_reads: usize) -> SharedFileReader {
        SharedFileReader::new(Self {
            data,
            later_reads,
            begun: Mutex::new(0),
            another: Condvar::new(),
        })
    }
}

impl FileReader for FirstChunkHeldBack {
    fn read_at(&self, offset: u64, buffer: &mut [u8]) -> std::io::Result<usize> {
        let mut begun = self.begun.lock().unwrap();
        if offset == 0 {
            while *begun < self.later_reads {
                begun = self.another.wait(begun).unwrap();
            }
        } else {
            *begun += 1;
            self.another.notify_all();
        }
        drop(begun);
        let rest = &self.data[(offset as usize).min(self.data.len())..];
        let count = rest.len().min(buffer.len());
        buffer[..count].copy_from_slice(&rest[..count]);
        Ok(count)
    }

    fn size(&self) -> u64 {
        self.data.len() as u64
    }
}
