// Spec-coverage fixture: a driver that performs all four locally
// controlled VStoTO actions through the VsToToProc methods.
impl TimedVsToTo {
    fn pump(&mut self, effects: &mut ClientEffects) {
        while self.proc.label().is_some() {}
        while let Some(m) = self.proc.gpsnd() {
            effects.gpsnd.push(m);
        }
        while self.proc.confirm().is_some() {}
        while let Some(d) = self.proc.brcv() {
            effects.brcv.push(d);
        }
    }
}
