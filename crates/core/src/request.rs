//! Request-based RMA operations (MPI_Rput/MPI_Rget and friends).
//!
//! §2: "Several functions can be completed in bulk with bulk
//! synchronization operations or using fine-grained request objects and
//! test/wait functions. However, we observed that the completion model only
//! minimally affects local overheads." The request object wraps the
//! fabric's explicit-nonblocking handle.

use fompi_fabric::{Endpoint, NbHandle};
use std::rc::Rc;

/// A fine-grained completion handle for one RMA operation.
pub struct Request {
    ep: Rc<Endpoint>,
    h: NbHandle,
    done: bool,
}

impl Request {
    pub(crate) fn new(ep: Rc<Endpoint>, h: NbHandle) -> Self {
        Self { ep, h, done: false }
    }

    /// MPI_Wait: block until the operation is remotely complete.
    pub fn wait(&mut self) {
        if !self.done {
            self.ep.wait(self.h);
            self.done = true;
        }
    }

    /// MPI_Test: poll for completion.
    pub fn test(&mut self) -> bool {
        if !self.done && self.ep.clock().now() >= self.h.t_complete {
            self.done = true;
        }
        self.done
    }
}

/// Wait on a set of requests (MPI_Waitall).
pub fn wait_all(reqs: &mut [Request]) {
    for r in reqs {
        r.wait();
    }
}
