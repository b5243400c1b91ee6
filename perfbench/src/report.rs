//! Named metrics with units and clocks, and the run's failure count.

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host time: how long the simulator takes. Noisy.
    Host,
    /// Simulated time or a simulated count: repeats exactly for a seed.
    Sim,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
    /// Sample count or other context, printed beside the value.
    pub note: String,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Cells, jobs and kernel checks attempted.
    pub attempted: u64,
    /// Of those, how many failed or produced a wrong output.
    pub failures: Vec<String>,
    /// Extra text sections (self-time table, layer attribution).
    pub sections: Vec<(String, String)>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str, clock: Clock) {
        self.end_to_end.push(Metric {
            name,
            value,
            unit,
            clock,
            note: String::new(),
        });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str, clock: Clock) {
        self.per_layer.push(Metric {
            name,
            value,
            unit,
            clock,
            note: String::new(),
        });
    }

    /// Attach a note to the most recently added metric named `name`.
    pub fn note(&mut self, name: &str, note: String) {
        if let Some(m) = self
            .end_to_end
            .iter_mut()
            .chain(self.per_layer.iter_mut())
            .rev()
            .find(|m| m.name == name)
        {
            m.note = note;
        }
    }

    /// Count one attempted unit of work; `Err` records a failure.
    pub fn check(&mut self, what: impl FnOnce() -> Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = what() {
            self.failures.push(e);
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}
